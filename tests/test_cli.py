import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mme
from mme import measure
from mme.catalog import entry, omega_field
from mme.cli import main
from mme.fields import MINPOLY_DIGIT_BUDGET, FieldContext, field_configure
from mme.identities import INCONCLUSIVE_REASON, sigma_f_quadratic
from mme.measure import COUNT_BUDGET, DEPTH_BUDGET, PIXEL_BUDGET
from mme.parser import parse_map
from mme.serialize import MAX_INTEGER_DIGITS, element_from_json, map_from_json, map_to_json
from conftest import SAME_FACTOR, polys_and_products, sampled_ratio, sympy_irreducible


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_graph_chebyshev(capsys):
    code, out, _ = run(capsys, "analyze-graph", "--map", "z^3-3z")
    assert code == 0
    report = json.loads(out)
    bd = sorted(tuple(c["bidegree"]) for c in report["components"])
    assert bd == [(1, 1), (2, 2)]
    assert all(c["genus"] == 0 for c in report["components"])


def test_analyze_graph_deterministic_output(capsys):
    _, out1, _ = run(capsys, "analyze-graph", "--map", "z^2+1", "--seed", "4")
    _, out2, _ = run(capsys, "analyze-graph", "--map", "z^2+1", "--seed", "4")
    assert out1 == out2


def test_analyze_graph_report_keys(capsys):
    _, out, _ = run(capsys, "analyze-graph", "--map", "z^2+1", "--seed", "4")
    report = json.loads(out)
    assert sorted(report) == ["basepoint", "branch_points", "components", "degree"]


# z^2 and ((3+4i)/5) z^2 over Q(i): equal measures (Haar measure on the unit
# circle), but no relation up to the degree budget, f∘g != g∘f, and every
# moment of both is 0
HAAR_PAIR = ["--field=1,0,1", "--bind", "i=w", "--f", "z^2", "--g", "(3/5+4/5*i)*z^2"]


def test_measure_report_echoes_only_the_settings_it_uses(capsys):
    # an undecided pair draws no cloud, so it echoes no sampling setting
    _, out, _ = run(capsys, "measure", *HAAR_PAIR, "--count", "200", "--depth", "20",
                    "--seed", "3")
    report = json.loads(out)
    assert sorted(report) == ["maps", "reason", "verdict"]
    assert report["verdict"] == "INCONCLUSIVE"


def test_exact_measure_report_echoes_no_sampling_setting(capsys):
    _, out, _ = run(capsys, "measure", "--f", "z^2", "--g", "z^2", "--count", "200",
                    "--depth", "20", "--seed", "3")
    report = json.loads(out)
    assert sorted(report) == ["maps", "route", "verdict", "witness"]
    assert (report["verdict"], report["route"], report["witness"]) == (
        "SAME", "fⁿ∘gᵐ = f^(n+k)", {"n": 0, "m": 1, "k": 1})


def test_exact_different_report_echoes_no_sampling_setting(capsys):
    _, out, _ = run(capsys, "measure", "--f", "z^2", "--g", "z^2+1", "--count", "200",
                    "--depth", "20", "--seed", "3")
    report = json.loads(out)
    assert sorted(report) == ["maps", "route", "verdict", "witness"]
    assert (report["verdict"], report["route"], report["witness"]) == (
        "DIFFERENT", "moments", {"k": 2, "f": "0", "g": "-1"})


def test_measure_decides_a_julia_set_far_out_exactly(capsys):
    # every preimage of z^2 + 10^18 - w reads as infinity in floats, so no
    # backward orbit can be sampled; the second moments are 0 and -10^18
    t0 = time.perf_counter()
    code, out, err = run(capsys, "measure", "--f", "z^2", "--g", "z^2+1000000000000000000")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["verdict"], report["route"], report["witness"]) == (
        "DIFFERENT", "moments", {"k": 2, "f": "0", "g": "-1000000000000000000"})


@pytest.mark.parametrize("name,params", [
    ("chebyshev-flower", {"a": "1"}),
    ("chebyshev-flower", {"a": "1+w"}),
    ("chebyshev-flower", {"a": "2"}),
    # the energy-distance verdict at this seed was a false DIFFERENT (ratio 33)
    ("chebyshev-flower", {"a": "-3-2w"}),
    ("zieve-family", {"n": 2, "m": 1}),
    ("zieve-family", {"n": 3, "m": 1}),
    ("zieve-family", {"n": 1, "m": 2}),
])
def test_measure_decides_every_catalog_pair_by_its_identity(capsys, name, params):
    f, g = (json.dumps(map_to_json(entry(name, params).maps[k])) for k in "fg")
    code, out, _ = run(capsys, "measure", "--f", f, "--g", g, "--count", "20000",
                       "--depth", "40", "--seed", "362377222")
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["route"], report["witness"]) == (
        "SAME", "fⁿ∘gᵐ = f^(n+k)", {"n": 1, "m": 1, "k": 1})


def test_measure_without_an_identity_samples(capsys):
    # measure used to sample this pair, and its clouds gave a false
    # DIFFERENT at seed 0; now it says INCONCLUSIVE, and loads no sampler
    # (test_exact_subcommands_load_no_numeric_layer runs it)
    for seed in range(5):
        code, out, err = run(capsys, "measure", *HAAR_PAIR, "--seed", str(seed))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert sorted(report) == ["maps", "reason", "verdict"]
        assert (report["verdict"], report["reason"]) == (
            "INCONCLUSIVE", INCONCLUSIVE_REASON)


# a z^2 and 1/(a^3 z^2) share their second iterate a^3 z^4; for a = 10^1200
# the height bound of the second iterate of g = 1/(a^3 z^2) is 35876 bits
HUGE_A = 10**1200


@pytest.mark.parametrize("command", ["iterate", "measure"])
def test_shared_iterate_over_the_height_budget_exits_two(capsys, command):
    f, g = "%d*z^2" % HUGE_A, "1/(%d*z^2)" % HUGE_A**3
    argv = {"iterate": ["iterate", "--map", f, "--shared-with", g],
            "measure": ["measure", "--f", f, "--g", g]}[command]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0  # refused before composing
    assert (code, out) == (2, "")
    assert err.startswith("error: g^2 may have coefficients of more than 32768 bits")


def test_powermap_equal_and_unequal(capsys):
    code, out, _ = run(capsys, "powermap", "--df", "6", "--dg", "12")
    assert code == 0
    assert json.loads(out)["same_periodic_points"] is True
    code, out, _ = run(capsys, "powermap", "--df", "3", "--dg", "5")
    assert json.loads(out)["same_periodic_points"] is False


def test_catalog_run_pass_exits_zero(capsys):
    code, out, _ = run(capsys, "catalog", "run", "zieve-family",
                       "--param", "n=2", "--param", "m=1")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_catalog_run_fail_exits_one(capsys):
    code, out, _ = run(capsys, "catalog", "run", "zieve-family",
                       "--param", "n=2", "--param", "m=2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_catalog_params_are_written_as_elements(capsys):
    code, out, _ = run(capsys, "catalog", "run", "chebyshev-flower", "--param", "a=1+w")
    assert code == 0
    W = field_configure([1, 1, 1])
    assert element_from_json(W, json.loads(out)["params"]["a"]) == W.one + W.gen()
    _, out, _ = run(capsys, "catalog", "run", "zieve-family", "--param", "n=3", "--param", "m=2")
    assert json.loads(out)["params"] == {"n": "3", "m": "2"}


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "analyze-graph", "--map", "z^^2")
    assert code == 2
    assert "position" in err


def test_unknown_catalog_entry_exits_two(capsys):
    code, _, err = run(capsys, "catalog", "run", "nonexistent")
    assert code == 2


def test_compose_and_iterate(capsys):
    code, out, _ = run(capsys, "compose", "--f", "z^2+1", "--g", "1/z")
    assert code == 0
    obj = json.loads(out)
    assert obj["num"] == ["1", "0", "1"]
    assert obj["den"] == ["0", "0", "1"]
    code, out, _ = run(capsys, "iterate", "--map", "z^2", "--n", "3")
    assert json.loads(out)["num"] == ["0"] * 8 + ["1"]


def test_shared_iterate_subcommand(capsys):
    code, out, _ = run(capsys, "iterate", "--map", "z^2", "--shared-with",
                       "z^3", "--budget", "1296")
    assert code == 0
    assert json.loads(out)["shared_iterate"] is None


def test_certify_triple(capsys):
    code, out, _ = run(
        capsys, "certify",
        "--T", "z^2(z+1)",
        "--R", "(1-z^2)/(z^3-1)",
        "--S", "(z-z^3)/(z^3-1)",
    )
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_certify_pair_from_a_triple(capsys, tmp_path):
    # T∘R = T∘S gives F∘F = F∘G and G∘F = G∘G for F = R∘T, G = S∘T; the maps
    # and the report go through files, written by --out and read by @path
    T, R, S = "z^2(z+1)", "(1-z^2)/(z^3-1)", "(z-z^3)/(z^3-1)"
    F, G = tmp_path / "F.json", tmp_path / "G.json"
    for target, outer in ((F, R), (G, S)):
        assert run(capsys, "compose", "--f", outer, "--g", T, "--out", str(target)) == (0, "", "")
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "certify", "--F", "@%s" % F, "--G", "@%s" % G,
                         "--out", str(report))
    assert (code, out, err) == (0, "", "")
    text = report.read_text()
    assert text.endswith("}\n")
    rep = json.loads(text)
    assert rep["all_pass"] is True
    assert [c["verdict"] for c in rep["claims"]] == ["PASS", "PASS"]


def test_certify_pair_fails_on_unrelated_maps(capsys):
    code, out, _ = run(capsys, "certify", "--F", "z^2", "--G", "z^2+1")
    assert code == 1
    rep = json.loads(out)
    assert rep["all_pass"] is False
    assert [c["verdict"] for c in rep["claims"]] == ["FAIL", "FAIL"]


@pytest.mark.parametrize("argv,message", [
    (["certify", "--R", "z^2", "--S", "z^2"], "certify needs all of --R, --S, --T"),
    (["certify", "--T", "z^2", "--F", "z^2", "--G", "z^3"], "certify needs all of --R, --S, --T"),
    (["certify", "--F", "z^2"], "certify needs --R/--S/--T or --F/--G"),
    (["certify"], "certify needs --R/--S/--T or --F/--G"),
    (["catalog", "run"], "catalog run needs an entry name"),
    (["compose", "--bind", "a", "--f", "z^2+a", "--g", "z"], "--bind expects name=value"),
    (["compose", "--bind", "ab=1", "--f", "z^2+a", "--g", "z"], "symbols are single letters"),
])
def test_incomplete_commands_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert json.loads(out) == {"entries": ["chebyshev-flower", "zieve-family", "power-map",
                                           "quadratic-sigma"]}


def test_sigma_subcommand(capsys):
    code, out, _ = run(capsys, "sigma", "--map", "z + 1/z")
    assert code == 0
    assert json.loads(out)["entries"] == ["0", "1", "1", "0"]


def test_field_and_bind_options(capsys):
    code, out, _ = run(capsys, "compose", "--field", "1,1,1",
                       "--bind", "a=1+w", "--f", "z^2+a", "--g", "z")
    assert code == 0
    assert json.loads(out)["num"][0] == ["1", "1"]


def test_consecutive_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; each call must parse afresh
    reports = [run(capsys, "compose", "--field", "1,1,1", "--bind", "a=" + value,
                   "--f", "z^2+a", "--g", "z")
               for value in ("1+w", "2")]
    assert [code for code, _, _ in reports] == [0, 0]
    assert [json.loads(out)["num"][0] for _, out, _ in reports] == [["1", "1"], "2"]
    # no binding carries over into a call that gives none
    code, out, err = run(capsys, "compose", "--field", "1,1,1", "--f", "z^2+a", "--g", "z")
    assert code == 2
    assert out == ""
    assert "unbound symbol 'a'" in err


@pytest.mark.parametrize("value", ["w", "2w", "1+w", "3*w"])
def test_generator_term_over_q_exits_two(capsys, value):
    # over Q there is no generator w; it must not silently read as 1
    code, out, err = run(capsys, "compose", "--bind", "a=" + value, "--f", "z^2+a", "--g", "z")
    assert code == 2
    assert out == ""
    assert "extension field" in err


def test_measure_same_map(capsys):
    code, out, _ = run(capsys, "measure", "--f", "z^2-1", "--g", "z^2-1",
                       "--count", "800", "--depth", "25")
    assert code == 0
    assert json.loads(out)["verdict"] == "SAME"


def test_measure_same_map_over_two_fields_samples(capsys):
    # no exact route compares maps over different field contexts, so the
    # same map over Q and over Q(w) is INCONCLUSIVE; its sampled clouds agree
    w = omega_field()
    g = json.dumps(map_to_json(parse_map("z^2-1", w)))
    code, out, _ = run(capsys, "measure", "--f", "z^2-1", "--g", g,
                       "--count", "800", "--depth", "25")
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep) == ["maps", "reason", "verdict"]
    assert rep["verdict"] == "INCONCLUSIVE"
    f = parse_map("z^2-1", FieldContext.rationals())
    assert sampled_ratio(f, parse_map("z^2-1", w), count=800, depth=25) < SAME_FACTOR


def test_measure_never_says_same_from_samples(capsys):
    # conjugate by a translation to w^2 + c and w^2 + c + 1: the measures
    # differ, as their second moments prove, but both Julia sets lie next
    # to infinity, where the clouds of the two maps agree
    code, out, _ = run(capsys, "measure", "--f", "z^2+1000000z", "--g", "z^2+1000000z+1")
    assert code == 0
    rep = json.loads(out)
    assert (rep["verdict"], rep["route"]) == ("DIFFERENT", "moments")
    f, g = (parse_map(text, FieldContext.rationals()) for text in ("z^2+1000000z", "z^2+1000000z+1"))
    assert sampled_ratio(f, g) < SAME_FACTOR


def assert_sampling_options_ignored(capsys, argv):
    """The measure run argv, ["measure", "--f", f, "--g", g, ...], exits 0 at
    once with the report of the run without the options after g, its
    --count, --depth or --seed, which only a sampler would read."""
    t0 = time.perf_counter()
    got = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert got == run(capsys, *argv[:5])
    code, out, err = got
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] in ("SAME", "DIFFERENT")


@pytest.mark.parametrize("argv", [
    ["measure", "--f", "z^2", "--g", "z^2+1", "--count", "0"],  # ignored
    ["render", "--map", "z^2", "--width", "0"],
    ["render", "--map", "z^2", "--height", "0"],
    ["render", "--map", "z^2", "--width=-3"],
    ["render", "--map", "z^2", "--window=-inf,inf,-2,2"],
])
def test_empty_cloud_or_raster_exits_two(capsys, argv):
    if argv[0] == "measure":
        return assert_sampling_options_ignored(capsys, argv)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_render_to_file(tmp_path, capsys):
    target = tmp_path / "out.ppm"
    code, _, _ = run(capsys, "render", "--map", "z^2", "--width", "60",
                     "--height", "60", "--count", "1500", "--depth", "20",
                     "--out", str(target))
    assert code == 0
    blob = target.read_bytes()
    assert blob.startswith(b"P6\n60 60\n255\n")
    assert len(blob) == len(b"P6\n60 60\n255\n") + 60 * 60 * 3


@pytest.mark.parametrize("name,param", [
    ("zieve-family", "n=x"),  # not an integer
    ("zieve-family", "n"),  # no '='
    ("chebyshev-flower", "a=1+zz"),  # not a term of Q(w)
    ("zieve-family", "q=1"),  # not a parameter of the entry
    ("quadratic-sigma", "num=1,0,1"),  # den missing
    ("quadratic-sigma", "num=1,x,1"),  # not a coefficient list
    ("zieve-family", "n=3000"),  # degree 3001^2, over the degree budget
    ("power-map", "d=4097"),  # over the degree budget
    ("power-map", "d=1000000000"),
])
def test_bad_catalog_param_exits_two(capsys, name, param):
    code, out, err = run(capsys, "catalog", "run", name, "--param", param)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_catalog_coefficient_params(capsys):
    code, out, _ = run(capsys, "catalog", "run", "quadratic-sigma",
                       "--param", "num=1,0,1", "--param", "den=0,1")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_field_option_takes_a_negative_value_after_a_space(capsys):
    # Q(t) with t^3 = 2; T∘R = T∘S holds because t/z fixes z + t/z, and
    # R = t/S, so sigma = t/z is a Moebius factor
    maps = ["--bind", "t=w", "--T", "z+t/z", "--S", "(z^2+2)/(z-1)",
            "--R", "t*(z-1)/(z^2+2)"]
    spaced = run(capsys, "certify", "--field", "-2,0,0,1", *maps)
    joined = run(capsys, "certify", "--field=-2,0,0,1", *maps)
    assert spaced == joined
    code, out, _ = spaced
    assert code == 1
    claims = {c["name"]: c for c in json.loads(out)["claims"]}
    assert claims["T∘R = T∘S"]["verdict"] == "PASS"
    factor = claims["no Moebius factor R = σ∘S"]
    assert factor["verdict"] == "FAIL"
    # t/z normalized: (0z + 1) / ((t^2/2) z + 0), since 2/t^2 = t
    assert factor["witness"] == {"moebius": ["0", "1", ["0", "0", "1/2"], "0"]}


@pytest.mark.parametrize("spaced,joined", [
    (["compose", "--f", "-z^2", "--g", "-z+1"],
     ["compose", "--f=-z^2", "--g=-z+1"]),
    (["iterate", "--map", "-z^2+1", "--shared-with", "-z^2+1", "--budget", "16"],
     ["iterate", "--map=-z^2+1", "--shared-with=-z^2+1", "--budget", "16"]),
    (["certify", "--T", "-z^2", "--R", "-z^2-1", "--S", "z^2+1"],
     ["certify", "--T=-z^2", "--R=-z^2-1", "--S", "z^2+1"]),
    (["sigma", "--map", "-z-1/z"], ["sigma", "--map=-z-1/z"]),
])
def test_map_options_take_a_negative_value_after_a_space(capsys, spaced, joined):
    out = run(capsys, *spaced)
    assert out[0] in (0, 1)
    assert out == run(capsys, *joined)


def test_render_window_takes_a_negative_value_after_a_space(tmp_path):
    blobs = []
    for k, window in enumerate((["--window", "-2,2,-2,2"], ["--window=-2,2,-2,2"])):
        target = tmp_path / ("%d.ppm" % k)
        assert main(["render", "--map", "z^2-1", *window, "--width", "24", "--height", "24",
                     "--count", "500", "--out", str(target)]) == 0
        blobs.append(target.read_bytes())
    assert blobs[0] == blobs[1]


def test_render_of_a_map_with_an_exceptional_two_cycle(tmp_path):
    # E(1/z^2) = {0, INF} is a 2-cycle, which no orbit from a start off it
    # meets: every lit pixel lies within two pixel widths of the unit
    # circle, the Julia set
    target = tmp_path / "inv.ppm"
    assert main(["render", "--map", "1/z^2", "--window=-2,2,-2,2", "--width", "40",
                 "--height", "40", "--count", "2000", "--out", str(target)]) == 0
    header = b"P6\n40 40\n255\n"
    blob = target.read_bytes()
    assert blob.startswith(header)
    lit = [k for k, rgb in enumerate(zip(*[iter(blob[len(header):])] * 3)) if any(rgb)]
    assert len(lit) > 40
    for k in lit:
        row, col = divmod(k, 40)
        center = complex(-2 + (col + 0.5) * 0.1, 2 - (row + 0.5) * 0.1)
        assert abs(abs(center) - 1) <= 2 * 0.1


@pytest.mark.parametrize("argv", [
    ["measure", "--f", "z^2", "--g", "z^2+1", "--count", "-5"],
    ["measure", "--f", "z^2", "--g", "z^2+1", "--depth", "0"],
    ["render", "--map", "z^2", "--count", "-1"],
    ["iterate", "--map", "z^2", "--n", "2", "--budget", "1"],
    ["iterate", "--map", "z^2", "--shared-with", "z^2", "--budget", "1"],
])
def test_count_depth_or_budget_out_of_range_exits_two(capsys, argv):
    if argv[0] == "measure":  # the options are ignored
        return assert_sampling_options_ignored(capsys, argv)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # measure ignores the options: its exact DIFFERENT and SAME come at once
    ["measure", "--f", "z^2", "--g", "z^2+1", "--count", "99999999999"],
    ["measure", "--f", "z^2", "--g", "z^2", "--count", str(COUNT_BUDGET + 1)],
    ["measure", "--f", "z^2", "--g", "z^2+1", "--depth", str(DEPTH_BUDGET + 1)],
    ["render", "--map", "z^2", "--count", str(COUNT_BUDGET + 1)],
    ["render", "--map", "z^2", "--depth", "10000000000"],
    ["render", "--map", "z^2", "--width", "100000", "--height", "100000"],
    ["render", "--map", "z^2", "--width", str(PIXEL_BUDGET + 1), "--height", "1"],
])
def test_sampling_or_raster_over_budget_exits_two(monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("a budget must refuse the input before any draw")

    # every draw of the sampler starts from its generator; a raster is
    # allocated only after its points are drawn
    monkeypatch.setattr(measure, "named_rng", unreachable)
    if argv[0] == "measure":
        return assert_sampling_options_ignored(capsys, argv)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_compose_of_degree_2000_takes_under_three_seconds(capsys):
    # the composite's coefficients are the binomials C(2000, k), up to 600 digits
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compose", "--f", "z^2000+1", "--g", "z+1")
    assert time.perf_counter() - t0 < 3.0
    assert (code, err) == (0, "")
    num = json.loads(out)["num"]
    assert len(num) == 2001
    assert num[0] == "2"  # C(2000, 0) + 1
    for k in (1, 1000, 2000):
        assert num[k] == str(math.comb(2000, k))


def test_analyze_graph_of_degree_40_takes_under_six_seconds(capsys):
    # a generic map: the diagonal and one (39, 39) component, whose factor
    # is the exact quotient P / (x - y), with no fit
    t0 = time.perf_counter()
    code, out, err = run(capsys, "analyze-graph", "--map", "z^40+3*z^7-2*z^3+z+1")
    assert time.perf_counter() - t0 < 6.0
    assert (code, err) == (0, "")
    components = json.loads(out)["components"]
    assert [c["bidegree"] for c in components] == [[1, 1], [39, 39]]
    assert all("exact_poly" in c for c in components)


def test_analyze_graph_over_its_degree_budget_exits_two(capsys):
    from mme.graphcurve import DEGREE_BUDGET

    d = DEGREE_BUDGET + 1
    for spec in ("z^%d+3*z^7-2*z^3+z+1" % d, "(z^%d+1)/(2*z^%d-3*z+5)" % (d, d)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze-graph", "--map", spec)
        assert time.perf_counter() - t0 < 1.0  # refused before any work
        assert (code, out) == (2, "")
        assert "degree %d exceeds the degree budget %d" % (d, DEGREE_BUDGET) in err


# a degree-4 map with 40-digit coefficients: f^4 is bounded by about 11.5k bits
# and takes seconds, f^5 by about 45.5k bits and would take minutes
FORTY_DIGIT_MAP = (
    "(3141592653589793238462643383279502884197z^4-2718281828459045235360287471352662497757z^3"
    "+1414213562373095048801688724209698078569z+1732050807568877293527446341505872366942)"
    "/(2236067977499789696409173668731276235440z^4+1618033988749894848204586834365638117720z^2"
    "-2645751311064590590501615753639260425710)")


def test_iterate_refuses_an_iterate_over_the_height_budget(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "iterate", "--map", FORTY_DIGIT_MAP, "--n", "5", "--budget", "1024")
    assert time.perf_counter() - t0 < 1.0  # refused before any composing
    assert (code, out) == (2, "")
    assert err.startswith("error: f^5 may have coefficients of more than 32768 bits")
    code, out, _ = run(capsys, "iterate", "--map", FORTY_DIGIT_MAP, "--n", "4")
    assert code == 0
    assert len(json.loads(out)["num"]) == 257


@pytest.mark.parametrize("argv", [
    ["iterate", "--map", "z+1", "--n", "1000000000"],
    ["iterate", "--map", "z^3", "--n", "1000000000"],
    ["iterate", "--map", "z^100000000"],
    ["compose", "--f", "z", "--g", "z+10^100000000"],
    ["measure", "--f", "z^2", "--g", "(z+1)^-100000000"],
    # fifty factors z^4096 by adjacency: 3.3 s to build in full
    ["compose", "--f", "z^4096" * 50, "--g", "z"],
    # a sum of fractions multiplies their denominators
    ["compose", "--f", "+".join("1/(z^100+%d)" % k for k in range(1, 81)), "--g", "z"],
    # each map is within the budgets; their composite has a height bound
    # of about 500k bits
    ["compose", "--f", "z^16+10^9000", "--g", "z^16+10^9000"],
    # each factor is within the budgets; a product of three of them has a
    # height bound past the height budget (36 s to build all 160 in full)
    ["compose", "--f", "(10^4000z)" * 160, "--g", "z"],
])
def test_input_past_the_budgets_exits_two_at_once(capsys, argv):
    # the degree or height of a power, a product, an iterate or a composite
    # is refused before anything is built
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert "budget" in err and err.startswith("error: ")


def test_coefficients_past_the_digit_limit_are_written(capsys):
    # f^7 for f = z^2 + 10^70 is within the height budget, and its constant
    # term f^7(0) has 4481 digits, past the 4300 that str() of an int allows
    x = 0
    for _ in range(7):
        x = x * x + 10**70
    code, out, _ = run(capsys, "iterate", "--map", "z^2+10^70", "--n", "7")
    assert code == 0
    assert Decimal(json.loads(out)["num"][0]) == Decimal(x)
    code, out, _ = run(capsys, "compose", "--f", "z^2+10^3000", "--g", "z^2+10^3000")
    assert code == 0
    assert len(json.loads(out)["num"][0]) == 6001


LONG_LITERAL = "1" * 5000
# a JSON string coefficient is read past Python's limit on digits, up to
# serialize.MAX_INTEGER_DIGITS
TOO_LONG_LITERAL = "1" * (MAX_INTEGER_DIGITS + 1)


@pytest.mark.parametrize("argv", [
    ["--f", "z^2+%s" % LONG_LITERAL],
    ["--f", '{"num": ["%s", 0, 1], "den": [1]}' % TOO_LONG_LITERAL],
    ["--f", '{"num": [%s, 0, 1], "den": [1]}' % LONG_LITERAL],
    ["--f", '{"num": [["%s"], 0, 1], "den": [1], "field": {"minpoly": [1, 1, 1]}}'
     % TOO_LONG_LITERAL],
    ["--f", '{"num": [0, 0, 1], "den": [1], "field": {"minpoly": ["%s", 0, 1]}}' % LONG_LITERAL],
    # an exponent would make Fraction build 10^100000000
    ["--f", '{"num": ["1e100000000", 0, 1], "den": [1]}'],
    ["--f", "z^2+a", "--bind", "a=1e-100000000"],
    ["--f", "z^2", "--field", "1e100000000,0,1"],
])
def test_integer_literals_past_the_digit_limit_exit_two(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compose", *argv, "--g", "z")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_field_past_the_minimal_polynomial_digit_budget_exits_two(capsys):
    # one digit over the budget is refused before the irreducibility test,
    # which takes seconds on such coefficients at degree 8
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compose", "--f", "z^2", "--g", "z",
                         "--field", "%d,0,1" % (10**MINPOLY_DIGIT_BUDGET + 1))
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "at most %d digits" % MINPOLY_DIGIT_BUDGET in err


def test_coefficients_past_the_digit_limit_are_read_back(capsys, tmp_path):
    # f^7 for f = z^2 + 10^70 has a constant term of 4481 digits, past the
    # 4300 that int() reads; compose reads the map back, and f o z is f
    code, out, _ = run(capsys, "iterate", "--map", "z^2+10^70", "--n", "7")
    assert code == 0
    big = tmp_path / "big.json"
    big.write_text(out)
    assert run(capsys, "compose", "--f", "@%s" % big, "--g", "z") == (0, out, "")
    # a numerator and a denominator of 5000 digits, over Q and Q(w)
    for coeff, field, want in ((LONG_LITERAL, [], LONG_LITERAL),
                               (["-1/%s" % LONG_LITERAL], ["--field", "1,1,1"],
                                "-1/%s" % LONG_LITERAL)):
        doc = {"num": [coeff, 0, 1], "den": [1], "field": {"minpoly": [1, 1, 1]} if field else "Q"}
        code, out, _ = run(capsys, "compose", "--f", json.dumps(doc), "--g", "z", *field)
        assert code == 0
        assert json.loads(out)["num"][0] == want
    # an exponent would still make Fraction build 10^100000000
    bomb = tmp_path / "bomb.json"
    bomb.write_text(json.dumps({"num": ["1e100000000", 0, 1], "den": [1]}))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compose", "--f", "@%s" % bomb, "--g", "z")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "") and "digits" in err


@pytest.mark.parametrize("doc", [
    {"num": 5, "den": [1]},
    {"num": ["x"], "den": [1]},
    {"num": [1, 0, 1], "den": [1], "field": {"minpoly": "ab"}},
    {"num": [1, 0, 1], "den": [1], "field": {"minpoly": None}},
    {"num": [True, 1], "den": [1]},
    {"num": [[1, {}], 1], "den": [1], "field": {"minpoly": [1, 1, 1]}},
    {"num": [0.5, 1], "den": [1]},
    {"num": ["1/0", 1], "den": [1]},
])
def test_malformed_map_json_exits_two(capsys, doc):
    code, out, err = run(capsys, "compose", "--f", json.dumps(doc), "--g", "z")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# any JSON value, and map documents whose coefficients are mostly small
# integers, with strings, booleans, floats, nulls and lists among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)


def weighted(*pairs):
    """Draw from each strategy s of (weight, s) with odds proportional to its weight."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(lambda s: s)


COEFF = weighted((6, st.integers(-3, 3)),
                 (1, st.sampled_from(["1/2", "-3", "x", "1/0", "", True, None, 0.5, 2.0, 1e400])),
                 (1, st.lists(st.integers(-2, 2) | st.sampled_from(["1/3", "y"]), max_size=3)),
                 (1, JSON_VALUES))
COEFFS = weighted((3, st.lists(COEFF, min_size=1, max_size=4)), (1, JSON_VALUES))
FIELDS = weighted((3, st.sampled_from([None, "Q", "rationals", {"minpoly": [1, 1, 1]}])),
                  (1, st.fixed_dictionaries({"minpoly": COEFFS})), (1, JSON_VALUES))
MAP_DOCUMENTS = weighted(
    (3, st.fixed_dictionaries({"num": COEFFS, "den": COEFFS}, optional={"field": FIELDS})),
    (1, JSON_VALUES))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(MAP_DOCUMENTS)
def test_map_json_documents_keep_the_contract(doc):
    code, _ = _keeps_the_contract(["compose", "--f", json.dumps(doc), "--g", "z"])
    assert code in (0, 2)


@pytest.mark.parametrize("argv", [
    ["render", "--map", "z^2+1000000z", "--width", "8", "--height", "8"],
    ["measure", "--f", "z^2+1000000z", "--g", "z^2+1000000z+1"],
])
def test_julia_set_near_an_exceptional_point_is_sampled(capsysbinary, argv):
    # the Julia set of z^2 + 10^6 z reaches about -10^6, within chordal 1e-6
    # of the exceptional point infinity, and backward orbits never meet it;
    # measure decides the pair exactly, by its second moments
    assert main(argv) == 0
    out, err = capsysbinary.readouterr()
    assert out.startswith(b"P6\n8 8\n255\n" if argv[0] == "render" else b"{")
    assert err == b""


def test_render_draws_the_julia_set_next_to_infinity(capsys, tmp_path):
    # half of the Julia set of z^2 + 10^7 z lies next to -10^7, where the
    # sphere lifts of its points are within 1e-12 of the north pole; the
    # raster bins the points themselves, so that half lights the window
    target = tmp_path / "far.ppm"
    code, out, err = run(capsys, "render", "--map", "z^2+10000000z",
                         "--window=-10000010,-9999990,-10,10", "--stats", "--out", str(target))
    assert (code, out) == (0, "")
    assert err.startswith("lit_fraction=")
    blob = target.read_bytes()
    header = b"P6\n400 400\n255\n"
    assert blob.startswith(header)
    lit = sum(map(any, zip(*[iter(blob[len(header):])] * 3)))
    # the stats are not rounded away: a few lit pixels read as a nonzero fraction
    stats = dict(item.split("=") for item in err.split())
    assert float(stats["lit_fraction"]) == lit / 400**2 > 0
    assert int(stats["lit_pixels"]) == lit


def test_compose_refuses_a_composite_over_the_degree_budget(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "compose", "--f", "z^65", "--g", "z^64")
    assert time.perf_counter() - t0 < 0.5  # refused before composing
    assert (code, out) == (2, "")
    assert err.startswith("error: degree 65 * 64 of f∘g exceeds the composite-degree budget 4096")
    code, out, _ = run(capsys, "compose", "--f", "z^64", "--g", "z^64")
    assert code == 0
    assert json.loads(out)["num"][4096] == "1"


def test_render_with_no_points_is_a_blank_raster(capsys, tmp_path):
    target = tmp_path / "blank.ppm"
    code, _, _ = run(capsys, "render", "--map", "z^2", "--width", "3", "--height", "2",
                     "--count", "0", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == b"P6\n3 2\n255\n" + bytes(3 * 2 * 3)


def test_render_of_a_julia_set_far_out_fails_fast(capsys):
    # every preimage of z^2 + 10^18 - w reads as infinity in floats, and
    # infinity is exceptional, so every backward orbit fails; each round's
    # failed orbits all count, so the sampler gives up after a few rounds
    t0 = time.perf_counter()
    code, out, err = run(capsys, "render", "--map", "z^2+1000000000000000000",
                         "--width", "20", "--height", "20")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert "too many failed backward orbits" in err


@pytest.mark.parametrize("argv", [
    ["powermap", "--df", "1", "--dg", "2"],
    ["powermap", "--df", "-3"],
    ["powermap", "--df", "2", "--dg", "0"],
    ["powermap", "--df", "1", "--root", "1/3"],
])
def test_powermap_degree_below_two_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_root_option_takes_a_negative_value_after_a_space(capsys):
    spaced = run(capsys, "powermap", "--root", "-1/7", "--df", "2")
    assert spaced == run(capsys, "powermap", "--root=-1/7", "--df", "2")
    code, out, _ = spaced
    assert code == 0
    assert json.loads(out)["root_of_unity"]["root"] == "6/7"


def test_root_finding_error_exits_three(capsys, monkeypatch):
    import mme.graphcurve
    from mme.numeric import RootFindingError

    def fail(*args, **kwargs):
        raise RootFindingError("no certified roots")

    monkeypatch.setattr(mme.graphcurve, "analyze", fail)
    code, out, err = run(capsys, "analyze-graph", "--map", "z^2+1")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")


def test_critical_values_merged_at_infinity_exit_three(capsys):
    # the seven finite critical values are about 1e34 and evaluate to one
    # point with infinity, so their local degrees need 22 preimages of 8
    code, out, err = run(capsys, "analyze-graph", "--map",
                         "z^8+1000000000000000000000000000000z+1")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1/0", "0.5+w", "z+1"])
def test_bad_binding_exits_two(capsys, value):
    code, out, err = run(capsys, "compose", "--field", "1,1,1", "--bind", "a=" + value,
                         "--f", "z^2+a", "--g", "z")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["1/0,0,1", "x,1", "1,,1"])
def test_bad_field_exits_two(capsys, field):
    code, out, err = run(capsys, "compose", "--field", field, "--f", "z", "--g", "z")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --field")
    assert "Traceback" not in err


def _times_linear(coeffs, root):
    """Coefficients (ascending) of the polynomial times z - root."""
    return [b - root * a for a, b in zip(coeffs + [0], [0] + coeffs)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    num=st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9),
    den=st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9),
    shared=st.none() | st.integers(-3, 3),
)
def test_analyze_graph_exit_codes_keep_the_contract(num, den, shared):
    # constants, degrees up to 8, heights up to 1e40, and a linear factor
    # the numerator and denominator share
    if shared is not None:
        num, den = _times_linear(num, shared), _times_linear(den, shared)
    text = json.dumps({"num": [str(c) for c in num], "den": [str(c) for c in den]})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze-graph", "--map", text])
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith(("numerical failure: ", "internal consistency error: "))


def _map_json(num, den, shared):
    if shared is not None:
        num, den = _times_linear(num, shared), _times_linear(den, shared)
    return json.dumps({"num": [str(c) for c in num], "den": [str(c) for c in den]})


# the maps test_analyze_graph_exit_codes_keep_the_contract draws
MAPS = st.builds(
    _map_json,
    st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9),
    st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9),
    st.none() | st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    f=MAPS,
    g=MAPS,
    command=st.sampled_from(["compose", "iterate", "shared-with"]),
    n=st.integers(-5, 5),
    budget=st.integers(-5, 5) | st.sampled_from([64, 1024]),
)
def test_compose_and_iterate_exit_codes_keep_the_contract(f, g, command, n, budget):
    argv = {
        "compose": ["compose", "--f", f, "--g", g],
        "iterate": ["iterate", "--map", f, "--n", str(n), "--budget", str(budget)],
        "shared-with": ["iterate", "--map", f, "--shared-with", g, "--budget", str(budget)],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith(("error: ", "numerical failure: ", "internal consistency error: "))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(T=MAPS, R=MAPS, S=MAPS)
def test_certify_exit_codes_keep_the_contract(T, R, S):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["certify", "--T", T, "--R", R, "--S", S])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 1):
        verdicts = [c["verdict"] for c in json.loads(out)["claims"]]
        assert ("FAIL" in verdicts) == (code == 1)
    else:
        assert out == ""
        assert err.startswith(("error: ", "numerical failure: ", "internal consistency error: "))


# mostly monic
LEADING = st.sampled_from([1, 1, 1, 1, 2, -1, Fraction(1, 3)])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(polys_and_products(0, 9, LEADING))
def test_field_option_works_or_is_rejected_up_front(coeffs):
    # degrees 0..9, monic or not, irreducible or a product of two factors
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compose", "--field", ",".join(str(c) for c in coeffs),
                     "--bind", "a=w", "--f", "z^2+a", "--g", "z"])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 2)
    degree = len(coeffs) - 1
    reducible = coeffs[-1] == 1 and 2 <= degree <= 8 and not sympy_irreducible(coeffs)
    assert ("is reducible over Q" in err) == reducible
    if code == 0:
        assert coeffs[-1] == 1 and 2 <= degree <= 8
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith("error: ")


def _keeps_the_contract(argv):
    """main(argv)'s exit code and report, asserting it exits 0, 1 or 2 without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
        return code, None
    return code, json.loads(out)


# integers in [-2, 6] three times in four, else values that are zero, not
# integers or not numbers
INT_PARAM = st.one_of(*[st.integers(-2, 6).map(str)] * 3,
                      st.sampled_from(["-0", "1.5", "2/1", "1e3", "x", ""]))
FLOWER_A = st.sampled_from(["1", "-2", "1/3", "1+w", "2w", "w^2", "0", "0*w", "1/0", "z", "a", ""])
COEFF_LIST = st.sampled_from(["1,0,1", "0,0,1", "1,2,3", "1/2,0,-1", "2,-1,1", "0,1", "1", "0",
                              "1,x", "1/0,1", ",", ""])
CATALOG_RUNS = st.one_of(
    st.tuples(st.just("chebyshev-flower"), st.fixed_dictionaries({}, optional={"a": FLOWER_A})),
    st.tuples(st.just("zieve-family"),
              st.fixed_dictionaries({}, optional={"n": INT_PARAM, "m": INT_PARAM})),
    st.tuples(st.just("power-map"), st.fixed_dictionaries({}, optional={"d": INT_PARAM})),
    st.tuples(st.just("quadratic-sigma"),
              st.fixed_dictionaries({"num": COEFF_LIST, "den": COEFF_LIST})
              | st.fixed_dictionaries({}, optional={"num": COEFF_LIST, "den": COEFF_LIST})),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(CATALOG_RUNS)
@example(("zieve-family", {"n": "3000", "m": "1"}))
@example(("power-map", {"d": "4097"}))
def test_catalog_run_exit_codes_keep_the_contract(run_):
    name, params = run_
    argv = ["catalog", "run", name]
    for key, value in params.items():
        argv += ["--param", "%s=%s" % (key, value)]
    code, report = _keeps_the_contract(argv)
    if code != 2:
        assert report["all_pass"] == (code == 0)


# degree 1, 2 or 3 (lower when num and den share a factor), up to 7-digit coefficients
LOW_DEGREE_MAPS = st.integers(1, 3).flatmap(lambda d: st.builds(
    lambda num, den: json.dumps({"num": [str(c) for c in num], "den": [str(c) for c in den]}),
    st.lists(st.integers(-10**6, 10**6), min_size=d + 1, max_size=d + 1),
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=d + 1),
))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(LOW_DEGREE_MAPS)
def test_sigma_exit_codes_keep_the_contract(f):
    code, report = _keeps_the_contract(["sigma", "--map", f])
    assert code in (0, 2)
    if code == 0:
        assert len(report["entries"]) == 4


# integer maps of degree 2 or 3 (lower, or constant, when num and den share a factor)
SMALL_MAPS = st.integers(2, 3).flatmap(lambda d: st.builds(
    lambda num, den: {"num": [str(c) for c in num], "den": [str(c) for c in den]},
    st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1),
    st.lists(st.integers(-6, 6), min_size=1, max_size=d + 1),
))


def _measured_pair(f_json, kind, other_json):
    """g for f by ``kind``, as JSON, and whether an identity relates it to f."""
    try:
        f = map_from_json(f_json)
    except ValueError:  # a constant or zero map
        return f_json, False
    if f.degree < 2:  # the command must exit 2
        return f_json, False
    if kind == "f":
        return f_json, True
    if kind == "f∘f":
        return map_to_json(f.compose(f)), True
    if kind == "σ_f∘f" and f.degree == 2:
        return map_to_json(sigma_f_quadratic(f).compose(f)), True
    # a random g, and the g for σ_f∘f when f has no σ_f (degree 3)
    return other_json, False


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=SMALL_MAPS, kind=st.sampled_from(["f", "f∘f", "σ_f∘f", "random"]), other=SMALL_MAPS,
       seed=st.integers(0, 2**32 - 1))
def test_measure_exit_codes_keep_the_contract(f, kind, other, seed):
    g, related = _measured_pair(f, kind, other)
    code, report = _keeps_the_contract(
        ["measure", "--f", json.dumps(f), "--g", json.dumps(g), "--count", "40",
         "--depth", "12", "--seed", str(seed)])
    assert code in (0, 2)
    if related:
        assert code == 0
        assert report["verdict"] == "SAME"


SIXTY_ONE_DIGITS = st.integers(10**60, 10**61 - 1)
DEGREES = st.one_of(st.none(), st.integers(-2, 40), st.integers(41, 2**64 - 1),
                    SIXTY_ONE_DIGITS | st.just(2**64))
ROOTS = st.one_of(
    st.none(),
    st.builds("{}/{}".format, st.integers(-50, 50) | SIXTY_ONE_DIGITS,
              st.integers(1, 10**6) | st.just(2**64 - 59)),  # 2^64 - 59 is prime
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-5, 0) | st.just(2**64)),
    st.sampled_from(["1/", "x/3", "3", "1/0", ""]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(df=DEGREES, dg=DEGREES, root=ROOTS)
def test_powermap_exit_codes_keep_the_contract(df, dg, root):
    argv = ["powermap"]
    for option, value in (("--df", df), ("--dg", dg), ("--root", root)):
        if value is not None:
            argv += [option, str(value)]
    assert _keeps_the_contract(argv)[0] in (0, 2)


@pytest.mark.parametrize("argv", [
    ["powermap", "--df", str(2**64), "--dg", "2"],
    ["powermap", "--df", "6", "--dg", str(10**60 + 7)],
    ["powermap", "--root", "1/%d" % 2**64, "--df", "3"],
])
def test_powermap_input_of_2_64_or_more_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "below 2^64" in err


def test_numeric_multiplicity_miss_exits_three(capsys):
    # a valid degree-4 map whose raw numeric Wronskian roots cluster onto the
    # wrong critical points: a numerical failure, not an input error
    text = json.dumps({
        "num": ["-365", "13840", "6161733081043727394398603761942528", "-1601"],
        "den": ["-11764348", "-325", "-55538688", "-253197980128594", "-21588513"],
    })
    code, out, err = run(capsys, "analyze-graph", "--map", text)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: multiplicity cross-check failed")


def test_import_loads_neither_scipy_nor_sympy():
    # importing sympy takes about half a second; only powermap pays for it,
    # and no command imports scipy
    probe = (
        "import json, sys\n"
        "import mme, mme.cli\n"
        "print(json.dumps({'missing': [n for n in mme.__all__ if not hasattr(mme, n)],\n"
        "                  'heavy': sorted({'scipy', 'sympy'} & set(sys.modules))}))\n"
    )
    paths = [os.path.dirname(os.path.dirname(mme.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(res.stdout) == {"missing": [], "heavy": []}


def test_analyze_graph_loads_no_scipy():
    # each cycle of a loop goes to its nearest preimage, with no assignment solver
    probe = (
        "import contextlib, io, json, sys\n"
        "from mme.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['analyze-graph', '--map', 'z^3-3z'])\n"
        "print(json.dumps({'code': code,\n"
        "                  'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    paths = [os.path.dirname(os.path.dirname(mme.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(res.stdout) == {"code": 0, "scipy": []}


def test_field_configuration_loads_no_sympy():
    # the irreducibility test of a minimal polynomial is the package's own
    probe = (
        "import contextlib, io, json, sys\n"
        "from mme.cli import main\n"
        "from mme.fields import FieldError, field_configure\n"
        "for c in ([1, 1, 1], [1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1]):\n"
        "    field_configure(c)\n"
        "try:\n"
        "    field_configure([4, 0, 0, 0, 1])\n"
        "    rejected = False\n"
        "except FieldError:\n"
        "    rejected = True\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['catalog', 'run', 'chebyshev-flower', '--param', 'a=1+w'])\n"
        "print(json.dumps({'rejected': rejected, 'code': code,\n"
        "                  'sympy': sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')}))\n"
    )
    paths = [os.path.dirname(os.path.dirname(mme.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(res.stdout) == {"rejected": True, "code": 0, "sympy": []}


def _fresh_process_json(probe):
    """The JSON that ``probe``, Python source, prints last in a fresh process."""
    paths = [os.path.dirname(os.path.dirname(mme.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    return json.loads(res.stdout.splitlines()[-1])


EXACT_COMMANDS = [
    ["compose", "--f", "z^2+1", "--g", "(z-1)/(z+2)"],
    ["iterate", "--map", "z^2-1", "--n", "3"],
    ["iterate", "--map", "z^2", "--shared-with", "z^3"],
    ["certify", "--T", "z^2(z+1)", "--R", "(1-z^2)/(z^3-1)", "--S", "(z-z^3)/(z^3-1)"],
    ["certify", "--F", "z^2-2", "--G", "-z^2+2"],
    ["catalog", "run", "zieve-family", "--param", "n=2", "--param", "m=1"],
    ["sigma", "--map", "(z^2+1)/(z-3)"],
    ["measure", "--f", "z^2", "--g", "z^2+1"],
    ["measure", *HAAR_PAIR],  # INCONCLUSIVE, over Q(i)
    ["iterate", "--field", "1,1,1", "--bind", "a=1+w", "--map", "a*z^2+1", "--n", "2"],
    ["iterate", "--field=-2,0,0,1", "--bind", "t=w", "--map", "z^2+t", "--n", "2"],
]
NUMERIC_LAYER = ("numpy", "mme.numeric", "mme.graphcurve", "mme.measure")


def _loaded_by(commands, modules):
    """The exit codes of ``main(argv)`` for each argv of ``commands``, run
    in turn in one fresh process, and which of ``modules`` it loaded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "from mme.cli import main\n"
        "codes = []\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'loaded': sorted(m for m in sys.modules if m in %r)}))\n"
    ) % (commands, modules)
    return _fresh_process_json(probe)


def test_exact_subcommands_load_no_numeric_layer():
    # every verdict of these subcommands is exact, so none loads numpy, the
    # root finder, the graph tracker or the sampler, nor mpmath, over Q or
    # over a number field
    assert _loaded_by(EXACT_COMMANDS, NUMERIC_LAYER + ("mpmath",)) == {
        "codes": [0] * len(EXACT_COMMANDS), "loaded": []}
    # powermap imports sympy, which imports mpmath itself
    assert _loaded_by([["powermap", "--df", "4", "--dg", "8", "--root", "1/3"]],
                      NUMERIC_LAYER) == {"codes": [0], "loaded": []}


def test_package_names_resolve_on_first_use():
    # importing the package loads none of its modules, and each exported
    # name is the object its home module defines
    probe = (
        "import json, sys\n"
        "import mme\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('mme.'))\n"
        "homes = {}\n"
        "for name in mme.__all__:\n"
        "    obj = getattr(mme, name)\n"
        "    home = getattr(obj, '__module__', None) or type(obj).__module__\n"
        "    homes[name] = home if getattr(sys.modules[home], name) is obj else None\n"
        "print(json.dumps({'loaded': loaded, 'homes': homes}))\n"
    )
    got = _fresh_process_json(probe)
    assert got["loaded"] == []
    assert sorted(got["homes"]) == sorted(mme.__all__)
    assert all(home and home.startswith("mme.") for home in got["homes"].values()), got["homes"]


NONZERO = st.integers(-6, 6).filter(bool)
# integer maps num/den, num of degree 0 to 3 (mostly 2 or 3) and den of
# degree at most that with a nonzero constant term (lower degree when they
# share a factor)
RENDER_MAPS = st.sampled_from([2, 3, 2, 3, 1, 0]).flatmap(lambda d: st.builds(
    lambda num, lead, den0, den: json.dumps({"num": [str(c) for c in num + [lead]],
                                             "den": [str(c) for c in [den0] + den]}),
    st.lists(st.integers(-6, 6), min_size=d, max_size=d), NONZERO, NONZERO,
    st.lists(st.integers(-6, 6), max_size=d),
))


def _window_text(values):
    return ",".join(map(repr, values))


# a window of positive size in most draws; else any four values, NaN and
# infinities among them, or text that is not four numbers
SIZED_WINDOWS = st.tuples(st.floats(-3, 3), st.floats(0.25, 4), st.floats(-3, 3),
                          st.floats(0.25, 4)).map(
    lambda t: _window_text([t[0], t[0] + t[1], t[2], t[2] + t[3]]))
WINDOW_VALUES = st.floats(-3, 3) | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])
WINDOWS = st.sampled_from(["sized"] * 4 + ["any", "text"]).flatmap(lambda kind: {
    "sized": SIZED_WINDOWS,
    "any": st.lists(WINDOW_VALUES, min_size=4, max_size=4).map(_window_text),
    "text": st.sampled_from(["", ",,,", "1,2,3", "1,2,3,4,5", "a,b,c,d", "1,1,-1,1"]),
}[kind])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=RENDER_MAPS, width=st.integers(-2, 24), height=st.integers(-2, 24),
       window=WINDOWS, count=st.integers(-2, 200), depth=st.integers(5, 20))
def test_render_exit_codes_keep_the_contract(f, width, height, window, count, depth):
    stdout, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["render", "--map", f, "--width", str(width), "--height", str(height),
                     "--window=" + window, "--count", str(count), "--depth", str(depth)])
    stdout.flush()
    out, err = stdout.buffer.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        header = b"P6\n%d %d\n255\n" % (width, height)
        assert out.startswith(header)
        assert len(out) == len(header) + width * height * 3
    else:
        assert out == b""
        assert err.startswith(("error: ", "numerical failure: "))
