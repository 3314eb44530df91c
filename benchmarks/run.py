"""The `mme` benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload graph --seed 1 --seconds 5 --trace 0
    python3 benchmarks/run.py --workload all --seed 1     # every workload, one table

Each run starts fresh single-threaded Python processes (``worker.py``): four
that only set up (import ``mme``, build the inputs) and one that also runs
the workload's job list in a closed loop, pass after pass, until
``--seconds`` have passed.  Every job's output is checked by its oracle.

End-to-end metrics (``--trace 0``): ``wall_s``, the median time of one pass
over the job list; ``setup_s``, the median time from process start to the
first job over the five processes; ``ok_frac``, jobs whose output passed
the oracle over jobs attempted; ``peak_rss_mb``, the worker's peak resident
memory.  Both times are taken on a shared virtual machine whose speed
drifts (``hostclock.py``): every process is pinned to one CPU, the host's
steal on it is subtracted, and each tenth of a second is scaled to a
reference speed measured by a fixed kernel run at its start.  The raw wall
times and the steal are in the detail line.  With
``--trace 1`` the worker runs one untraced and one traced pass, both without
speed samples, and the per-layer metrics of ``layertrace.py`` are printed
instead.

The line before the last is ``detail {json}``: provenance (commit, source
digest, nproc, library versions, BLAS threads), the seed, the median and
quartiles of each timed metric, and every job's time, status and output
sha256.  The last line is the result object.  The exit code is 0 when a
result was printed, 1 when the workload could not be run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4  # setup-only processes; the measuring worker is one more sample
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline, cpu):
    """Run the worker with ``args``; returns (its set-up time, net of host steal
    and at reference speed, and its result object)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % args)
    steal0 = hostclock.steal_s(cpu)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=str(ROOT), env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s exceeded the run deadline" % args)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError("worker %s failed (exit %s): %s" % (args, proc.returncode, " | ".join(tail)))
    res = json.loads(lines[-1])
    scaled, net, spent = res["ready_clock"]
    raw = res["ready"] - t0 - (res["ready_steal"] - steal0) - spent
    return raw * scaled / net, res


def _summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _provenance():
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mme").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "platform": "%s-%s-%s" % (platform.system(), platform.release(), platform.machine())}


def _digests_agree(runs):
    """Every job's output is byte-identical across all passes run."""
    first = [r["sha256"] for r in runs[0]]
    return all([r["sha256"] for r in rec] == first for rec in runs[1:])


def run_workload(workload, seed, seconds, trace, cpu):
    """(result object, detail object) for one workload; ``cpu`` is the CPU
    this process is pinned to, which the workers inherit."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(_spawn(common + ["--setup-only"], deadline, cpu)[0])
    setup_s, res = _spawn(common + ["--seconds", str(seconds)] + (["--trace"] if trace else []),
                          deadline, cpu)
    setup.append(setup_s)

    passes = res["passes"]
    runs = passes + ([res["traced"]] if trace else [])
    records = [r for rec in runs for r in rec]
    failed = sum(r["status"] != "ok" for r in records)
    unexpected = [r for r in records if r["status"] == "wrong" and not r["known_failure"]]
    deterministic = _digests_agree(runs)
    walls = [sum(r["s"] for r in rec) for rec in passes]
    untraced = [r for rec in passes for r in rec]
    ok_frac = sum(r["status"] == "ok" for r in untraced) / len(untraced)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layer_metrics"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ok_frac": {"value": ok_frac, "unit": "1"},
            "peak_rss_mb": {"value": res["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    result = {"correct": not unexpected and deterministic, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "provenance": dict(_provenance(), **res["versions"]),
        "summary": {"setup_s": _summary(setup), "wall_s": _summary(walls),
                    "raw_wall_s": _summary([sum(r["wall"] for r in rec) for rec in passes]),
                    "steal_s": _summary([sum(r["steal"] for r in rec) for rec in passes])},
        "deterministic": deterministic,
        "unexpected_wrong": [(r["job"], r["reason"]) for r in unexpected],
        "jobs": [
            {k: r[k] for k in ("job", "exit", "status", "reason", "known_failure", "sha256")}
            | {"s": [rec[i]["s"] for rec in runs]}
            for i, r in enumerate(runs[0])
        ],
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cpu = hostclock.pin()
    if not (ROOT / "src" / "mme" / "__init__.py").is_file():
        print("error: no mme sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], detail = run_workload(name, args.seed, args.seconds, args.trace, cpu)
            print("detail " + json.dumps(detail, sort_keys=True))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print("%-10s correct=%s failed=%d/%d  " % (name, res["correct"], res["failed"],
                                                   res["attempted"])
              + "  ".join("%s=%.4g %s" % (k, m["value"], m["unit"])
                          for k, m in res["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, k): m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
