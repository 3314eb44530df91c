"""Run one workload's jobs in this (fresh, single-threaded) process.

Started by ``run.py``; prints one JSON object on its last stdout line.  Each
job is a real ``mme`` CLI call, ``mme.cli.main(argv)``, run in process with
its stdout captured, timed, digested and checked by the job's oracle.  A job
that raises is recorded with the exception's type and the workload goes on.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S [--trace | --setup-only]
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402


def run_job(job, tracer=None, clock=None):
    """Run one job; returns its record.  Exceptions become failed records.

    The job's time ``s`` is taken by ``clock`` (a :class:`hostclock.Clock`):
    net of host steal, and at the reference speed when a meter runs."""
    import mme.cli  # looked up per call, so a traced cli.main is the one called

    clock = clock or hostclock.Clock()
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="\n", write_through=True)
    err = io.StringIO()
    exc_type = None
    mark = clock.begin()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enabled = True
        try:
            code = mme.cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # the workload must survive a crashing job
            code, exc_type, exc_text = None, type(exc).__name__, str(exc)
        finally:
            if tracer is not None:
                tracer.enabled = False
    timing = clock.end(mark)
    out.flush()
    data = raw.getvalue()
    if exc_type is not None:
        status, reason = "error", "uncaught %s: %s" % (exc_type, exc_text[:200])
    else:
        status, reason = job.check(code, data)
        if status == "error" and err.getvalue().strip():
            reason += ": " + err.getvalue().strip().splitlines()[-1][:200]
    return dict(timing, **{
        "job": job.name,
        "exit": exc_type if exc_type is not None else code,
        "status": status,
        "reason": reason,
        "known_failure": job.known_failure is not None,
        "sha256": hashlib.sha256(data).hexdigest(),
    })


def run_pass(jobs, tracer=None, clock=None):
    return [run_job(job, tracer, clock) for job in jobs]


def versions():
    import mpmath
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "mpmath": mpmath.__version__,
           "threads_env": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        out["blas"] = deps.get("blas", {}).get("name")
    except (TypeError, KeyError, AttributeError):
        out["blas"] = None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cpu = hostclock.pin()  # the CPU run.py pinned, inherited
    meter = hostclock.SpeedMeter()
    meter.start()
    import mme.cli  # noqa: F401  (setup: the imports every CLI call pays)
    import workloads

    workdir = ROOT / ".bench_work" / ("%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, str(workdir))
        result = {"ready": time.monotonic(), "ready_steal": hostclock.steal_s(cpu),
                  "ready_clock": meter.read()}
        if args.trace:  # traced and untraced passes alike run without samples
            meter.stop()
        if not args.setup_only:
            result.update(measure(jobs, args, hostclock.Clock(cpu, None if args.trace else meter)))
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


def measure(jobs, args, clock):
    """Untraced passes until ``--seconds`` have passed (at least one), or, with
    ``--trace``, one untraced pass and one traced pass of the same jobs."""
    passes = []
    t0 = time.perf_counter()
    while not passes or (not args.trace and time.perf_counter() - t0 < args.seconds):
        passes.append(run_pass(jobs, clock=clock))
    out = {"passes": passes, "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "versions": versions(), "pinned_cpu": clock.cpu}
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(jobs, tracer, clock)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(sum(r["s"] for r in passes[0]), sum(r["s"] for r in traced),
                                 sum(r["wall"] for r in traced))
        out["traced"] = traced
        out["layer_metrics"] = {k: list(v) for k, v in metrics.items()}
    return out


if __name__ == "__main__":
    sys.exit(main())
