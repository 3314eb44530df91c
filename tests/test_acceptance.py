"""End-to-end checks of the package's headline guarantees, with pinned
tolerances and runtime budgets."""

import json
import math
import time

import numpy as np
import pytest

from mme.base import ConsistencyError
from mme.catalog import entry, omega_field
from mme.cli import main
from mme.fields import FieldContext, field_configure
from mme.graphcurve import analyze
from mme.identities import (
    same_measure_test,
    shared_iterate_search,
    sigma_f_quadratic,
    sigma_invariance_check,
)
from mme.measure import julia_raster, lit_fraction
from mme.polys import BiPoly, Poly
from mme.powermaps import (
    RootOfUnity,
    is_periodic,
    same_periodic_points_powermaps,
)
from mme.ratmaps import RationalMap, critical_data
from mme.serialize import map_to_json
from conftest import (
    SAME_FACTOR,
    brute_force_is_periodic,
    pushed_ratio,
    random_rational_map,
    sampled_ratio,
)

Q = FieldContext.rationals()


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


# 1 ----------------------------------------------------------------------------------


def test_chebyshev_cubic_graph_curve_decomposition():
    start = time.time()
    report, _c, _m, certs = analyze(rmap([0, -3, 0, 1]))
    elapsed = time.time() - start
    bd = sorted(tuple(c["bidegree"]) for c in report["components"])
    assert bd == [(1, 1), (2, 2)]
    assert all(c["genus"] == 0 for c in report["components"])
    expected = {
        BiPoly(Q, [[0, -1], [1, 0]]).normalized(),  # x - y
        BiPoly(Q, [[-3, 0, 1], [0, 1, 0], [1, 0, 0]]).normalized(),  # x^2+xy+y^2-3
    }
    assert {c.exact_poly.normalized() for c in certs} == expected
    assert elapsed < 5.0


# 2 ----------------------------------------------------------------------------------


def test_bidegrees_sum_to_degree_on_fifty_random_maps():
    start = time.time()
    rng = np.random.default_rng(20240201)
    analyzed = []
    for i in range(50):
        d = 2 + i % 4
        f = random_rational_map(d, rng)
        report, *_ = analyze(f, reconstruct=False)
        rs = [tuple(c["bidegree"]) for c in report["components"]]
        assert sum(r[0] for r in rs) == d, (f, rs)
        assert all(r[0] == r[1] for r in rs), (f, rs)
        analyzed.append((f, report))
    assert time.time() - start < 180.0


# 3 ----------------------------------------------------------------------------------


def test_genus_lower_bound_with_three_simple_critical_values():
    rng = np.random.default_rng(20240301)
    checked = 0
    while checked < 20:
        d = 3 + checked % 3
        f = random_rational_map(d, rng)
        cd = critical_data(f)
        simple = sum(1 for _v, pts in cd.value_groups if len(pts) == 1 and pts[0][1] == 1)
        if simple < 3:
            continue
        report, *_ = analyze(f, reconstruct=False)
        for comp in report["components"]:
            r = comp["bidegree"][0]
            if r >= 2:
                assert comp["genus"] >= 1, (f, comp)
                assert comp["genus"] >= math.ceil((r - 1) / 2), (f, comp)
        checked += 1


# 4 ----------------------------------------------------------------------------------


@pytest.mark.parametrize("a", ["1", "2", "1+w"])
def test_chebyshev_flower_certificates(a):
    rep = entry("chebyshev-flower", {"a": a}).run()
    got = {name: verdict for name, verdict, _w in rep.claims}
    assert got["T∘R = T∘S"] == "PASS"
    assert got["no Moebius factor R = σ∘S"] == "PASS"
    assert got["f∘f = f∘g"] == "PASS"


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2), (2, 2)])
def test_zieve_family_certificates(n, m):
    # for n = m the no-Moebius claim is mathematically false: T is
    # symmetric under z -> -1-z and that Moebius exactly relates R and S,
    # which the certificate reports with the witness
    rep = entry("zieve-family", {"n": n, "m": m}).run()
    got = {name: verdict for name, verdict, _w in rep.claims}
    assert got["T∘R = T∘S"] == "PASS"
    assert got["no Moebius factor R = σ∘S"] == "PASS"
    assert got["f∘f = f∘g"] == "PASS"


def test_counterexample_catalog_runtime():
    start = time.time()
    for a in ("1", "2", "1+w"):
        entry("chebyshev-flower", {"a": a}).run()
    for n, m in ((2, 1), (1, 2), (2, 2)):
        entry("zieve-family", {"n": n, "m": m}).run()
    assert time.time() - start < 30.0


# 5 ----------------------------------------------------------------------------------


def test_measure_agreement_across_seeds():
    start = time.time()
    e = entry("chebyshev-flower", {"a": "1"})
    f1, g1 = e.maps["f"], e.maps["g"]
    z2, z2p1 = rmap([0, 0, 1]), rmap([1, 0, 1])
    same = same_measure_test(f1, g1)
    assert same.verdict == "SAME", same.as_dict()
    diff = same_measure_test(z2, z2p1)
    assert diff.verdict == "DIFFERENT", diff.as_dict()
    assert time.time() - start < 120.0


def test_measure_agreement_across_seeds_by_sampling():
    # the clouds of the flower pair agree at every seed
    start = time.time()
    e = entry("chebyshev-flower", {"a": "1"})
    for seed in range(5):
        ratio = sampled_ratio(e.maps["f"], e.maps["g"], count=20000, depth=40, seed=seed)
        assert ratio < SAME_FACTOR, (seed, ratio)
    assert time.time() - start < 120.0


# 6 ----------------------------------------------------------------------------------


def test_sigma_f_exact_on_hundred_random_quadratics():
    rng = np.random.default_rng(20240601)
    checked = 0
    while checked < 100:
        f = random_rational_map(2, rng)
        s = sigma_f_quadratic(f)  # raises if either exact identity fails
        assert f.compose(s) == f
        assert s.compose(s) == RationalMap.polynomial(Poly.x(f.ctx))
        checked += 1


def test_sigma_f_pushforward_preserves_measure_on_subset():
    rng = np.random.default_rng(20240602)
    for k in range(3):
        f = random_rational_map(2, rng)
        s = sigma_f_quadratic(f)
        rep = sigma_invariance_check(f, s)
        assert rep.verdict == "SAME", rep.as_dict()


def test_sigma_f_pushforward_preserves_measure_on_subset_by_sampling():
    rng = np.random.default_rng(20240602)
    for k in range(3):
        f = random_rational_map(2, rng)
        ratio = pushed_ratio(f, sigma_f_quadratic(f), count=2000, depth=30, seed=k)
        assert ratio < SAME_FACTOR, (k, ratio)


# 7 ----------------------------------------------------------------------------------


def test_power_map_criterion_matches_brute_force_oracle():
    start = time.time()
    for d in range(2, 13):
        for b in range(1, 51):
            z = RootOfUnity.reduced(1, b)
            assert is_periodic(z, d) == brute_force_is_periodic(z, d), (d, b)
    assert same_periodic_points_powermaps(6, 12) is True
    assert same_periodic_points_powermaps(3, 5) is False
    for k in range(1, 11):
        z = RootOfUnity.reduced(1, 2**k)
        assert is_periodic(z, 3) and is_periodic(z, 5)
    assert time.time() - start < 10.0


# 8 ----------------------------------------------------------------------------------


def test_internal_consistency_violations_exit_three(monkeypatch, capsys):
    # sphere-relation and integer-genus checks run inside every analysis in
    # the tests above; here the error path is pinned: a consistency
    # violation surfaces as exit code 3, not as a report
    def boom(*a, **k):
        raise ConsistencyError("sphere relation violated")

    monkeypatch.setattr("mme.graphcurve.analyze", boom)
    code = main(["analyze-graph", "--map", "z^2"])
    assert code == 3
    assert "consistency" in capsys.readouterr().err


def test_genus_values_are_integers_in_reports():
    report, *_ = analyze(rmap([1, 2, 0, 1], [2, 1]), reconstruct=False)
    for comp in report["components"]:
        assert isinstance(comp["genus"], int)
        assert comp["genus"] >= 0


# 9 ----------------------------------------------------------------------------------


def _figure_map():
    # f(z) = a*(z^3-3z) + 1/(a*(z^3-3z)) at a = 0.4843 + 0.07776i,
    # exactly over Q(i)
    ctx = field_configure([1, 0, 1])
    i = ctx.gen()
    a = ctx.from_rational(4843) / ctx.from_rational(10000) + \
        i * ctx.from_rational(243) / ctx.from_rational(3125)
    x = Poly.x(ctx)
    T = RationalMap(x**3 - x.scale(ctx.from_rational(3)), Poly.one(ctx))
    R = RationalMap(x * x.scale(a * a) + Poly.one(ctx), x.scale(a))
    return R.compose(T)


def test_flower_julia_raster_is_deterministic_and_plausible():
    f = _figure_map()
    args = dict(count=12000, depth=30, seed=0)
    ppm1 = julia_raster(f, 160, 160, (-2.2, 2.2, -2.2, 2.2), **args)
    ppm2 = julia_raster(f, 160, 160, (-2.2, 2.2, -2.2, 2.2), **args)
    assert ppm1 == ppm2
    frac = lit_fraction(ppm1)
    assert 0.01 <= frac <= 0.50, frac


def test_flower_measure_is_forward_invariant():
    f = _figure_map()
    rep = sigma_invariance_check(f, f)
    assert rep.verdict == "SAME", rep.as_dict()


def test_flower_measure_is_forward_invariant_by_sampling():
    f = _figure_map()
    assert pushed_ratio(f, f, count=2000, depth=30, seed=1) < SAME_FACTOR


# 10 ---------------------------------------------------------------------------------


def test_shared_iterate_search_controls():
    start = time.time()
    e = entry("chebyshev-flower", {"a": "1"})
    assert shared_iterate_search(e.maps["f"], e.maps["g"], budget=6**4) is None
    rng = np.random.default_rng(20241001)
    f = random_rational_map(2, rng)
    assert shared_iterate_search(f, f.iterate(3), budget=2**9) == (3, 1)
    assert time.time() - start < 60.0


def test_shared_iterate_search_reaches_the_degree_budget(tmp_path, capsys):
    # z^2 - 1 against its 12th iterate, of degree 4096: the default budget
    f = RationalMap.polynomial(Poly(Q, [-1, 0, 1]))
    spec = tmp_path / "f12.json"
    spec.write_text(json.dumps(map_to_json(f.iterate(12))))
    start = time.time()
    code = main(["iterate", "--map", "z^2-1", "--shared-with", "@%s" % spec])
    assert time.time() - start < 10.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["shared_iterate"] == [12, 1]
