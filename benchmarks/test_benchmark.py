"""Tests of the benchmark's own machinery: tracing, the job runner, inputs.

    python3 -m pytest benchmarks -q

They run the minimal-size job lists (``small=True``) in process.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hostclock  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402

import mme.cli  # noqa: E402


# the layers each workload is built to load (see BENCHMARK.json)
LOADS = {
    "graph": ("graphcurve", "numeric"),
    "exact_q": ("polys", "ratmaps", "fields", "identities", "catalog"),
    "exact_ext": ("fields", "polys", "ratmaps", "identities", "catalog"),
    "measure": ("measure", "numeric"),
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Per workload: (jobs, untraced records, traced records, tracer)."""
    out = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, 3, str(tmp_path_factory.mktemp(name)), small=True)
        untraced = worker.run_pass(jobs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        out[name] = (jobs, untraced, traced, tracer)
    return out


def test_wrappers_replace_every_binding():
    import mme.graphcurve
    import mme.measure
    import mme.numeric
    import mme.ratmaps

    originals = {
        "projective_roots": mme.numeric.projective_roots,
        "critical_data": mme.ratmaps.critical_data,
        "linear_sum_assignment": mme.graphcurve.linear_sum_assignment,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert mme.graphcurve.projective_roots is mme.numeric.projective_roots
        assert mme.measure.projective_roots is mme.numeric.projective_roots
        assert mme.numeric.projective_roots.bench_span == "numeric.projective_roots"
        assert mme.graphcurve.critical_data is mme.ratmaps.critical_data
        assert mme.ratmaps.critical_data.bench_span == "ratmaps.critical_data"
        assert mme.graphcurve.linear_sum_assignment.bench_span == "graphcurve.assign"
        # no module of the package still holds an unwrapped original
        wrapped = {id(original) for _owner, _attr, original in tracer._undo}
        for name, mod in list(sys.modules.items()):
            if name == "mme" or name.startswith("mme."):
                for attr, value in vars(mod).items():
                    assert id(value) not in wrapped, "%s.%s left unwrapped" % (name, attr)
    finally:
        tracer.uninstall()
    assert mme.numeric.projective_roots is originals["projective_roots"]
    assert mme.graphcurve.critical_data is originals["critical_data"]
    assert mme.graphcurve.linear_sum_assignment is originals["linear_sum_assignment"]


def test_small_runs_hit_every_metric_span(small_runs):
    hit = set()
    for name, (_jobs, _untraced, _traced, tracer) in small_runs.items():
        layer_self = tracer.layer_self_s()
        for layer in LOADS[name]:
            assert layer_self[layer] > 0, "%s does not load %s" % (name, layer)
        hit |= {span for span, rec in tracer.spans.items() if rec[1]}
    missing = sorted(Tracer.METRIC_SPANS - hit)
    assert not missing, missing


def test_traced_output_is_byte_identical(small_runs):
    for name, (_jobs, untraced, traced, _tracer) in small_runs.items():
        assert [r["sha256"] for r in untraced] == [r["sha256"] for r in traced], name
        assert [r["status"] for r in untraced] == [r["status"] for r in traced], name


def test_self_times_add_up_to_traced_wall(small_runs):
    for name, (_jobs, _untraced, traced, tracer) in small_runs.items():
        wall = sum(r["wall"] for r in traced)
        total = sum(tracer.layer_self_s().values())
        assert total == pytest.approx(wall, rel=0.02), name
        assert set(tracer.layer_self_s()) == set(LAYERS)


def test_oracles_pass_except_known_failures(small_runs):
    for name, (jobs, untraced, _traced, _tracer) in small_runs.items():
        for job, rec in zip(jobs, untraced):
            if job.known_failure is None:
                assert rec["status"] == "ok", (name, rec)


def test_negative_field_coefficients_reach_the_program(small_runs):
    jobs, untraced, _traced, _tracer = small_runs["exact_ext"]
    rec = {r["job"]: r for r in untraced}["certify-cubic"]
    assert "--field=-2,0,0,1" in {j.name: j for j in jobs}["certify-cubic"].argv
    assert rec["exit"] in (0, 1)  # a verdict, not an argparse usage error (2)


def test_crashing_job_is_recorded_and_the_workload_goes_on():
    def ok_check(code, out):
        return ("ok", "") if code == 0 else ("error", "exit %r" % code)

    jobs = [
        workloads.Job("bad-param", ["catalog", "run", "zieve-family", "--param", "n=x"],
                      ok_check),
        workloads.Job("bad-usage", ["analyze-graph"], ok_check),
        workloads.Job("good", ["powermap", "--df", "6", "--dg", "12"], ok_check),
    ]
    records = worker.run_pass(jobs)
    assert records[0]["status"] == "error"
    assert records[0]["exit"] in ("ValueError", 2)  # 2 once the CLI maps it to an input error
    assert records[1]["status"] == "error" and records[1]["exit"] == 2
    assert records[2]["status"] == "ok"


def test_inputs_depend_only_on_the_seed(tmp_path):
    def argvs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        jobs = workloads.build("exact_ext", seed, str(d), small=True)
        return [[a.replace(str(d), "") for a in j.argv] for j in jobs]

    assert argvs(5, "a") == argvs(5, "b")
    assert argvs(5, "c") != argvs(6, "d")


def test_raster_oracle_rejects_a_julia_set_off_the_unit_circle():
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, write_through=True)  # closing it would close raw
    with contextlib.redirect_stdout(out):
        assert mme.cli.main(["render", "--map", "z^2-1", "--width", "40", "--height", "40"]) == 0
    ppm = raw.getvalue()
    assert workloads.check_raster(40)(0, ppm)[0] == "ok"
    assert workloads.check_raster(40, unit_circle=True)(0, ppm)[0] == "wrong"


def test_steal_clock_reads_this_cpu():
    assert hostclock.steal_s(None) == 0.0
    assert hostclock.steal_s(min(os.sched_getaffinity(0))) >= 0.0


def test_speed_samples_leave_outputs_unchanged(small_runs):
    jobs, untraced, _traced, _tracer = small_runs["graph"]
    meter = hostclock.SpeedMeter()
    meter.start()
    try:
        sampled = worker.run_pass(jobs, clock=hostclock.Clock(None, meter))
    finally:
        meter.stop()
    assert [r["sha256"] for r in sampled] == [r["sha256"] for r in untraced]
    assert meter.samples > 1
    scaled, net, spent = meter.read()
    assert scaled > 0 and spent > 0
    # the jobs' times add up to the meter's time between the first and last job
    assert sum(r["s"] for r in sampled) <= scaled
    assert all(r["s"] > 0 for r in sampled)
