import math

import numpy as np
import pytest

from mme.fields import FieldContext
from mme.graphcurve import (
    _fiber_coeffs,
    _plan_loops,
    _track,
    analyze,
    build_graph,
    fiber_at,
    genus_zero_parametrization_check,
)
from mme.numeric import ConsistencyError, RootFindingError
from mme.polys import BiPoly, Poly, graph_bipoly
from mme.ratmaps import RationalMap
from conftest import random_rational_map, rng_for

Q = FieldContext.rationals()


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


def bidegs(report):
    return sorted(tuple(c["bidegree"]) for c in report["components"])


def test_chebyshev_cubic_decomposition():
    report, _curve, _mon, certs = analyze(rmap([0, -3, 0, 1]), seed=0)
    assert bidegs(report) == [(1, 1), (2, 2)]
    assert all(c["genus"] == 0 for c in report["components"])
    polys = {BiPoly(Q, [[0, -1], [1, 0]]).normalized()}
    polys.add(BiPoly(Q, [[-3, 0, 1], [0, 1, 0], [1, 0, 0]]).normalized())
    got = {c.exact_poly.normalized() for c in certs}
    assert got == polys


def test_power_map_splits_into_lines():
    report, _c, _m, certs = analyze(rmap([0, 0, 0, 1]), seed=1)
    assert bidegs(report) == [(1, 1), (1, 1), (1, 1)]
    # the two non-diagonal lines x = (cube root of unity) * y exist
    # geometrically but are not defined over Q, so no exact factor
    for cert in certs:
        if cert.is_diagonal:
            assert cert.exact_poly is not None
        else:
            assert cert.exact_poly is None


def test_generic_quadratic_two_components():
    report, *_ = analyze(rmap([1, 2, 1], [2, -1, 3]), seed=0)
    assert bidegs(report) == [(1, 1), (1, 1)]


def test_generic_map_genus_matches_adjunction():
    # a degree-4 map with generic ramification: non-diagonal component is
    # irreducible of bidegree (3,3) and genus (d-2)^2 = 4
    rng = rng_for("generic-genus")
    for _ in range(10):
        f = random_rational_map(4, rng)
        report, *_ = analyze(f, seed=2, reconstruct=False)
        bd = bidegs(report)
        if bd == [(1, 1), (3, 3)]:
            nondiag = [c for c in report["components"] if not c["is_diagonal"]][0]
            assert nondiag["genus"] == 4
            return
    pytest.skip("no generic degree-4 sample found")


def test_bidegree_sums_to_degree():
    rng = rng_for("bidegree-sum")
    for d in (2, 3, 4):
        f = random_rational_map(d, rng)
        report, *_ = analyze(f, seed=3, reconstruct=False)
        rs = [c["bidegree"] for c in report["components"]]
        assert sum(r[0] for r in rs) == d
        assert all(r[0] == r[1] for r in rs)


def test_ramification_cycle_type_partition_sizes():
    report, *_ = analyze(rmap([0, -3, 0, 1]), seed=0)
    for comp in report["components"]:
        r = comp["bidegree"][0]
        for cycle_type in comp["ramification"]:
            assert sum(cycle_type) == r


def test_reconstructed_factors_multiply_to_graph_polynomial():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z
    report, _c, _m, certs = analyze(f, seed=0)
    product = certs[0].exact_poly
    for cert in certs[1:]:
        product = product * cert.exact_poly
    P = graph_bipoly(f.num, f.den)
    assert product.normalized() == P.normalized()


def test_genus_zero_parametrization_check():
    _r, _c, _m, certs = analyze(rmap([0, -3, 0, 1]), seed=0)
    for cert in certs:
        assert genus_zero_parametrization_check(cert) == "PASS"


def test_diagonal_component_identified_uniquely():
    report, *_ = analyze(rmap([2, 0, 0, 1], [0, 0, 1]), seed=0)  # (z^3+2)/z^2
    diag = [c for c in report["components"] if c["is_diagonal"]]
    assert len(diag) == 1
    assert diag[0]["bidegree"] == [1, 1]


def test_sphere_relation_violation_raises():
    from mme.graphcurve import _check_sphere_relation

    # the product of these transpositions in either order is not the identity
    perms = [(1, 0, 2), (0, 2, 1)]
    with pytest.raises(ConsistencyError):
        _check_sphere_relation(3, perms, [0, 1])
    # genuine involution pair is accepted
    _check_sphere_relation(3, [(1, 0, 2), (1, 0, 2)], [0, 1])


def test_riemann_hurwitz_genus_is_integer_and_nonnegative():
    rng = rng_for("rh-int")
    for d in (2, 3):
        f = random_rational_map(d, rng)
        report, *_ = analyze(f, seed=4, reconstruct=False)
        for comp in report["components"]:
            g = comp["genus"]
            assert isinstance(g, int) and g >= 0


def test_lockstep_tracking_matches_each_path_alone():
    curve = build_graph(rmap([2, 0, -1, 0, 1], [1, 3, 0, 1]), seed=6)
    plan = _plan_loops(curve, curve.seed)
    x0 = plan.waypoints[0][0]
    base = fiber_at(curve, x0)
    # four keyhole loops and a two-leg path around part of the basepoint circle
    c, R = curve.base_center, curve.base_radius
    arc = [c + R * np.exp(1j * (np.angle(x0 - c) + 0.4 * k)) for k in range(3)]
    paths = [[wp] for wp in plan.waypoints[:4]] + [[arc[:2], arc[1:]]]
    matrix = curve.fiber_matrix()
    # each row of a batched coefficient solve is the single-abscissa product
    xs = [x for wp in plan.waypoints for x in wp]
    for x, row in zip(xs, _fiber_coeffs(matrix, xs)):
        assert row.tobytes() == ((x ** np.arange(len(matrix))) @ matrix).tobytes()
    together = _track(matrix, curve.degree, base, paths)
    for path, ends in zip(paths, together):
        alone = _track(matrix, curve.degree, base, [path])[0]
        assert len(ends) == len(path)
        assert [[complex(y) for y in f] for f in ends] == [[complex(y) for y in f] for f in alone]


def test_lockstep_failure_drops_later_paths(monkeypatch):
    from mme import graphcurve

    curve = build_graph(rmap([2, 0, -1, 0, 1], [1, 3, 0, 1]), seed=6)
    plan = _plan_loops(curve, curve.seed)
    base = fiber_at(curve, plan.waypoints[0][0])
    paths = [[wp] for wp in plan.waypoints[:3]]
    matrix = curve.fiber_matrix()
    # the fiber solve fails at the first abscissa the middle path tries
    a, b = plan.waypoints[1][:2]
    lengths = [abs(q - p) for p, q in zip(plan.waypoints[1], plan.waypoints[1][1:])]
    h0 = min(1.0, sum(lengths) / 64.0 / abs(b - a))
    bad = _fiber_coeffs(matrix, [a + (0.0 + h0) * (b - a)])[0]
    batch = graphcurve.projective_roots_batch

    def failing_batch(rows, d):
        if (rows == bad).all(axis=1).any():
            raise RootFindingError("forced failure")
        return batch(rows, d)

    monkeypatch.setattr(graphcurve, "projective_roots_batch", failing_batch)
    first, failed, dropped = _track(matrix, curve.degree, base, paths)
    alone = _track(matrix, curve.degree, base, paths[:1])[0]
    assert [[complex(y) for y in f] for f in first] == [[complex(y) for y in f] for f in alone]
    assert isinstance(failed, RootFindingError)
    assert dropped is None


# non-float report fields of three maps; the values come from tracking each
# loop and circle on its own, which lockstep tracking must reproduce
PINNED_REPORTS = [
    (([0, -3, 0, 1], [1]), 0, [
        ([1, 1], 0, True, [[1]] * 5, [["0", "-1"], ["1", "0"]]),
        ([2, 2], 0, False, [[1, 1], [2], [1, 1], [1, 1], [2]],
         [["-3", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]),
    ]),
    (([1, -2, 0, 3], [2, 1, 1, 1]), 5, [
        ([1, 1], 0, True, [[1]] * 8, [["0", "-1"], ["1", "0"]]),
        ([2, 2], 1, False, [[1, 1], [2]] * 4,
         [["-5/3", "-1/3", "5/3"], ["-1/3", "7/3", "5/3"], ["5/3", "5/3", "1"]]),
    ]),
    (([2, 0, -1, 0, 1], [1, 3, 0, 1]), 6, [
        ([1, 1], 0, True, [[1]] * 18, [["0", "-1"], ["1", "0"]]),
        ([3, 3], 4, False, [[1, 1, 1], [1, 2], [1, 2]] * 6,
         [["-6", "-1", "-2", "1"], ["-1", "-5", "1", "3"], ["-2", "1", "4", "0"],
          ["1", "3", "0", "1"]]),
    ]),
]


@pytest.mark.parametrize("coeffs,seed,expected", PINNED_REPORTS)
def test_report_fields_are_pinned(coeffs, seed, expected):
    report, *_ = analyze(rmap(*coeffs), seed=seed)
    got = [
        (c["bidegree"], c["genus"], c["is_diagonal"], c["ramification"], c["exact_poly"])
        for c in report["components"]
    ]
    assert got == expected
