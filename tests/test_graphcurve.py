import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mme.base import INF, ConsistencyError, RootFindingError
from mme.fields import FieldContext
from mme.catalog import entry
from mme.fields import field_configure
from mme.graphcurve import (
    BISECTION_BUDGET,
    KEYHOLE_STEPS,
    TrackingError,
    _cycles_at_preimages,
    _fiber_coeffs,
    _keyholes,
    _plan_loops,
    _sheet_samples,
    _track,
    _vanishing_relation,
    analyze,
    build_graph,
    fiber_at,
    genus_zero_parametrization_check,
    linear_sum_assignment,
    monodromy,
    reconstruct_component,
)
from mme.numeric import (
    chordal,
    chordal2,
    homogeneous,
    min_pairwise_chordal2,
    point_arrays,
    projective_roots,
    rationalize_into_field,
)
from mme.polys import BiPoly, Poly, graph_bipoly
from mme.ratmaps import RationalMap, critical_data
from conftest import random_rational_map, rng_for

Q = FieldContext.rationals()


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


def bidegs(report):
    return sorted(tuple(c["bidegree"]) for c in report["components"])


def _points(fiber):
    """The points of a (z, inf) fiber as a list, INF included."""
    z, inf = fiber
    return [INF if i else p for p, i in zip(z.tolist(), inf.tolist())]


def _values(fibers):
    """The points of each fiber, for comparison by value."""
    return [_points(f) for f in fibers]


def _full_loop(plan, i):
    """The keyhole loop around critical value i as one closed polyline from
    the basepoint: its leg, its circle and its leg back, each segment a
    level-0 step."""
    return _whole_loop(plan.legs[i], plan.circles[i])


def _whole_loop(leg, circle):
    return leg + circle[1:] + leg[-2::-1]


def test_chebyshev_cubic_decomposition():
    report, _curve, _mon, certs = analyze(rmap([0, -3, 0, 1]))
    assert bidegs(report) == [(1, 1), (2, 2)]
    assert all(c["genus"] == 0 for c in report["components"])
    polys = {BiPoly(Q, [[0, -1], [1, 0]]).normalized()}
    polys.add(BiPoly(Q, [[-3, 0, 1], [0, 1, 0], [1, 0, 0]]).normalized())
    got = {c.exact_poly.normalized() for c in certs}
    assert got == polys


def test_power_map_splits_into_lines():
    report, _c, _m, certs = analyze(rmap([0, 0, 0, 1]))
    assert bidegs(report) == [(1, 1), (1, 1), (1, 1)]
    # the two non-diagonal lines x = (cube root of unity) * y exist
    # geometrically but are not defined over Q, so no exact factor
    for cert in certs:
        if cert.is_diagonal:
            assert cert.exact_poly is not None
        else:
            assert cert.exact_poly is None


def test_power_map_over_q_omega_certifies_all_three_lines():
    W = field_configure([1, 1, 1])  # w^2 + w + 1 = 0
    w = W.gen()
    report, _c, _m, certs = analyze(RationalMap.polynomial(Poly.x(W) ** 3))
    assert bidegs(report) == [(1, 1), (1, 1), (1, 1)]
    lines = {BiPoly(W, [[W.zero, -c], [W.one, W.zero]]) for c in (W.one, w, w * w)}
    assert {cert.exact_poly for cert in certs} == lines


def test_flower_map_over_q_omega_reports_exact_factors():
    f = entry("chebyshev-flower", {"a": "1+w"}).maps["f"]
    report, *_ = analyze(f)
    got = [(c["bidegree"], c["genus"], c["exact_poly"]) for c in report["components"]]
    assert got == [
        ([1, 1], 0, X_MINUS_Y),
        ([2, 2], 0, [["-3", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]),
        ([3, 3], 4, [[["1", "1"], "0", "0", "0"], ["0", "9", "0", "-3"],
                     ["0", "0", "0", "0"], ["0", "-3", "0", "1"]]),
    ]


def test_cubic_field_map_certifies_the_generic_component_by_division():
    # one complex value cannot fix three rational coordinates, so no fit
    # rationalizes over Q(2^(1/3)); the one off-diagonal orbit needs none,
    # since its factor is the exact quotient P / (x - y)
    K = field_configure([-2, 0, 0, 1])
    num = [[2, -3, -2], [-2, -2, 2], [3, 1, -3], [-3, -1]]
    den = [[1, 0, -2], [-2, 1, 2], [-3, -3], [-1, 3]]
    f = RationalMap(Poly(K, [K.element(c) for c in num]), Poly(K, [K.element(c) for c in den]))
    report, curve, _m, certs = analyze(f)
    assert bidegs(report) == [(1, 1), (2, 2)]
    assert [cert.is_diagonal for cert in certs] == [True, False]
    assert all(cert.exact_poly is not None for cert in certs)
    diag = BiPoly(K, [[K.zero, -K.one], [K.one, K.zero]])
    assert certs[0].exact_poly == diag
    assert certs[1].exact_poly == curve.P.divide_exact(diag).normalized()
    assert (certs[0].exact_poly * certs[1].exact_poly).normalized() == curve.P.normalized()


def test_vanishing_relation_confirms_the_conic_of_chebyshev_cubic():
    _r, _c, mon, certs = analyze(rmap([0, -3, 0, 1]), reconstruct=False)
    conic = certs[1]
    assert conic.bidegree == (2, 2)
    points = _sheet_samples(conic.orbit, mon.samples)
    # x-degree 1 has no relation; x-degree 3 already has one at x-degree 2
    assert _vanishing_relation(points, 1) is None
    assert _vanishing_relation(points, 3) is None
    rel = _vanishing_relation(points, 2)
    rel = rel / rel.flat[np.abs(rel).argmax()]
    got = BiPoly(Q, [[rationalize_into_field(Q, complex(c)) for c in row] for row in rel])
    assert got.normalized() == BiPoly(Q, [[-3, 0, 1], [0, 1, 0], [1, 0, 0]])


def _loop_relation(points, r):
    """The null vector of _vanishing_relation, from rows built one monomial
    at a time."""

    def monomials(z):
        if z is INF:
            u, v = 1.0 + 0j, 0j
        else:
            s = max(1.0, abs(z))
            u, v = z / s, 1.0 / s
        norm = (abs(u) ** 2 + abs(v) ** 2) ** (r / 2.0)
        return [u**k * v ** (r - k) / norm for k in range(r + 1)]

    rows = [[p * q for p in monomials(x) for q in monomials(y)]
            for x, y in zip(*map(_points, points))]
    return np.linalg.svd(np.array(rows))[2][-1].conj().reshape(r + 1, r + 1)


def test_vanishing_relation_matches_rows_built_per_sample():
    # points of xy = 1, two of them at infinity, and of the conic of z^3 - 3z
    xs = [0.5, -2.0, 3j, 1 + 1j, 0.25 - 2j]
    hyperbola = (point_arrays(xs + [0j, INF]), point_arrays([1 / x for x in xs] + [INF, 0j]))
    _r, _c, mon, certs = analyze(rmap([0, -3, 0, 1]), reconstruct=False)
    for points, r in ((hyperbola, 1), (_sheet_samples(certs[1].orbit, mon.samples), 2)):
        got, want = _vanishing_relation(points, r), _loop_relation(points, r)
        got, want = (m / m.flat[np.abs(m).argmax()] for m in (got, want))
        assert np.abs(got - want).max() < 1e-12
    rel = _vanishing_relation(hyperbola, 1)
    assert np.allclose(rel / rel[1, 1], [[-1, 0], [0, 1]], rtol=0, atol=1e-12)


def test_generic_quadratic_two_components():
    report, *_ = analyze(rmap([1, 2, 1], [2, -1, 3]))
    assert bidegs(report) == [(1, 1), (1, 1)]


def test_generic_map_genus_matches_adjunction():
    # a degree-4 map with generic ramification: non-diagonal component is
    # irreducible of bidegree (3,3) and genus (d-2)^2 = 4
    rng = rng_for("generic-genus")
    for _ in range(10):
        f = random_rational_map(4, rng)
        report, *_ = analyze(f, reconstruct=False)
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
        report, *_ = analyze(f, reconstruct=False)
        rs = [c["bidegree"] for c in report["components"]]
        assert sum(r[0] for r in rs) == d
        assert all(r[0] == r[1] for r in rs)


def test_ramification_cycle_type_partition_sizes():
    report, *_ = analyze(rmap([0, -3, 0, 1]))
    for comp in report["components"]:
        r = comp["bidegree"][0]
        for cycle_type in comp["ramification"]:
            assert sum(cycle_type) == r


def test_reconstructed_factors_multiply_to_graph_polynomial():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z
    report, _c, _m, certs = analyze(f)
    product = certs[0].exact_poly
    for cert in certs[1:]:
        product = product * cert.exact_poly
    P = graph_bipoly(f.num, f.den)
    assert product.normalized() == P.normalized()


def test_genus_zero_parametrization_check():
    _r, _c, _m, certs = analyze(rmap([0, -3, 0, 1]))
    for cert in certs:
        assert genus_zero_parametrization_check(cert) == "PASS"


def test_diagonal_component_identified_uniquely():
    report, *_ = analyze(rmap([2, 0, 0, 1], [0, 0, 1]))  # (z^3+2)/z^2
    diag = [c for c in report["components"] if c["is_diagonal"]]
    assert len(diag) == 1
    assert diag[0]["bidegree"] == [1, 1]


# the fixed degree 6-8 maps of the benchmark's graph workload, (num, den)
BENCHMARK_GRAPH_MAPS = [
    ([5, -1, 1, -4, 0, 3, 1], [5, 1, 3, 5, -3, 0, 5]),
    ([-1, -2, 4, 5, -5, 0, 2, -3], [-2, -5, 1, 1, 0, 4, 1, 5]),
    ([3, -3, -1, -1, -3, -3, 4, 3, -3], [-3, -2, 3, -5, 3, -4, -1, 2, 4]),
]
X_MINUS_Y = [[0, -1], [1, 0]]


def test_antisymmetry_makes_the_diagonal_a_factor():
    # build_graph checks only that P is antisymmetric; then P(x, x) = 0, so
    # x - y divides P, and the diagonal's factor is x - y with no division
    W = field_configure([1, 1, 1])
    shift = RationalMap(Poly(W, [W.gen(), 1]), Poly(W, [1]))  # z + w
    rng = rng_for("diagonal-factor")
    maps = [rmap([0, -3, 0, 1]), rmap([1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 1])]
    maps += [rmap(num, den) for num, den in BENCHMARK_GRAPH_MAPS]
    for d in range(2, 9):
        maps += [random_rational_map(d, rng) for _ in range(3)]
        maps += [random_rational_map(d, rng, W).compose(shift) for _ in range(3)]
    for f in maps:
        P = graph_bipoly(f.num, f.den)
        assert P.is_antisymmetric()
        diag = BiPoly(f.ctx, X_MINUS_Y)
        quotient = P.divide_exact(diag)
        assert quotient is not None and quotient * diag == P
        cert = SimpleNamespace(is_diagonal=True)
        assert reconstruct_component(build_graph(f), cert) == diag


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
        report, *_ = analyze(f, reconstruct=False)
        for comp in report["components"]:
            g = comp["genus"]
            assert isinstance(g, int) and g >= 0


def test_target_pole_is_the_first_farthest_grid_point():
    from mme.graphcurve import _target_pole

    grid = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    rng = rng_for("target-pole")
    # symmetric sets tie many grid points; max keeps the first of them
    cases = [[0j, INF], [1 + 1j, -1 - 1j, 1 - 1j, -1 + 1j], [0.5 + 0j, -0.5 + 0j]]
    for _ in range(40):
        values = list(rng.normal(size=5) * 3 + 1j * rng.normal(size=5) * 3)
        cases.append(values[:4] + ([INF] if rng.random() < 0.5 else []))
    for values in cases:
        want = max(grid, key=lambda c: chordal(*point_arrays([c]), *point_arrays(values)).min())
        assert _target_pole(values) == want


def _separation(z, inf):
    """The smallest chordal distance between two points of the fiber (z, inf)."""
    return np.sqrt(min_pairwise_chordal2(homogeneous(z, inf)))


def _lockstep_case():
    """A degree-4 curve, its loop plan and base fiber, and paths from the base
    fiber: four whole keyhole loops, two legs and a polyline along part of
    the basepoint circle."""
    curve = build_graph(rmap([2, 0, -1, 0, 1], [1, 3, 0, 1]))
    plan = _plan_loops(curve)
    t0 = plan.basepoint
    c = np.mean(curve.values)
    R = abs(t0 - c)
    arc = [c + R * np.exp(1j * (np.angle(t0 - c) + 0.4 * k)) for k in range(3)]
    paths = [_full_loop(plan, i) for i in range(4)] + plan.legs[4:6] + [arc]
    return curve, plan, fiber_at(curve, t0), paths


def _batch_failing_at(bad):
    """A projective_roots_batch stand-in that fails every row whose bytes
    are ``bad`` and solves the others."""
    from mme import graphcurve

    batch = graphcurve.projective_roots_batch

    def failing_batch(rows, d, near=None):
        z, inf, failed = batch(rows, d, near=near)
        for i, row in enumerate(rows):
            if row.tobytes() == bad:
                z[i], inf[i] = 0, False
                failed[i] = RootFindingError("forced failure")
        return z, inf, failed

    return failing_batch


def _outcome_bits(outcomes):
    """``_track``'s outcomes with each fiber as the bytes of its arrays and
    each error as its type and message."""
    out = []
    for fibers in outcomes:
        if isinstance(fibers, Exception):
            out.append((type(fibers), str(fibers)))
        else:
            out.append([(z.tobytes(), inf.tobytes()) for z, inf in fibers])
    return out


def _each_alone(matrix, d, starts, paths):
    """The ``_outcome_bits`` of each path tracked on its own."""
    return [_outcome_bits(_track(matrix, d, [start], [path]))[0]
            for start, path in zip(starts, paths)]


def test_lockstep_tracking_matches_each_path_alone():
    curve, plan, base, paths = _lockstep_case()
    matrix = curve.matrix
    # each row of a batched coefficient solve is the single-abscissa product
    ts = [t for path in plan.legs + plan.circles for t in path]
    for t, row in zip(ts, _fiber_coeffs(matrix, ts)):
        assert row.tobytes() == ((t ** np.arange(len(matrix))) @ matrix).tobytes()
    together = _track(matrix, curve.degree, [base] * len(paths), paths)
    for path, fibers in zip(paths, together):
        alone = _track(matrix, curve.degree, [base], [path])[0]
        assert len(fibers) == len(path)
        assert _values(fibers) == _values(alone)


def _failing_legs(monkeypatch):
    """Three legs whose fiber solve fails at the first abscissa the middle
    one tries, with the curve and base fiber: (curve, base, legs)."""
    from mme import graphcurve

    curve, plan, base, _paths = _lockstep_case()
    bad = _fiber_coeffs(curve.matrix, [plan.legs[1][1]])[0].tobytes()
    monkeypatch.setattr(graphcurve, "projective_roots_batch", _batch_failing_at(bad))
    return curve, base, plan.legs[:3]


def test_lockstep_failure_drops_only_its_path(monkeypatch):
    curve, base, paths = _failing_legs(monkeypatch)
    together = _track(curve.matrix, curve.degree, [base] * 3, paths)
    assert isinstance(together[1], RootFindingError)
    assert len(together[0]) == len(paths[0]) and len(together[2]) == len(paths[2])
    assert _outcome_bits(together) == _each_alone(curve.matrix, curve.degree, [base] * 3, paths)


def test_small_chunks_track_bit_for_bit_as_whole_levels(monkeypatch):
    from mme import graphcurve

    curve, _plan, base, paths = _lockstep_case()
    d = curve.degree

    def tracked(paths):
        return _outcome_bits(_track(curve.matrix, d, [base] * len(paths), paths))

    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_solves(mp)
        whole = tracked(paths)
    rows, levels = sum(map(len, calls)), len(calls)
    with pytest.MonkeyPatch.context() as mp:
        failing = _failing_legs(mp)[2]
        failed = tracked(failing)
        assert failed == _each_alone(curve.matrix, d, [base] * 3, failing)
    assert failed[1][0] is RootFindingError and isinstance(failed[2], list)
    monkeypatch.setattr(graphcurve, "CHUNK_ENTRIES", 3 * d * d)
    calls = _counting_solves(monkeypatch)
    assert tracked(paths) == whole
    # the same rows, in batches of at most three
    assert sum(map(len, calls)) == rows and max(map(len, calls)) == 3
    assert len(calls) >= rows / 3 > levels
    with pytest.MonkeyPatch.context() as mp:
        assert tracked(_failing_legs(mp)[2]) == failed


def _serial_reference(curve, fiber, path):
    """Fibers at the vertices of ``path``, tracked one fixed step at a time.

    The steps are a 512th of the path's length, 8 times finer than the
    tracker's level 0, and each is matched by the permutation of least
    total chordal cost, found by trying all of them.  Also returns the
    largest move of a step over the new fiber's separation.
    """
    lengths = [abs(b - a) for a, b in zip(path, path[1:])]
    step = sum(lengths) / 512.0
    out, worst = [fiber], 0.0
    for (a, b), seg_len in zip(zip(path, path[1:]), lengths):
        n = max(1, math.ceil(seg_len / step))
        for i in range(1, n + 1):
            x = b if i == n else a + (i / n) * (b - a)
            new = point_arrays(projective_roots(_fiber_coeffs(curve.matrix, [x])[0], curve.degree))
            cost = chordal(*fiber, *new)
            rows = range(curve.degree)
            cols = list(min(itertools.permutations(rows), key=lambda p: cost[rows, p].sum()))
            worst = max(worst, cost[rows, cols].max() / _separation(*new))
            fiber = tuple(a[cols] for a in new)
        out.append(fiber)
    return out, worst


def _near_keyhole(curve, plan, i):
    """A keyhole loop whose circle about critical value i has a radius of a
    256th of its distance to the basepoint, as one closed polyline."""
    x0, b = plan.basepoint, curve.values[i]
    (leg,), (circle,), _corners = _keyholes(x0, [b], [abs(b - x0) / 256])
    return _whole_loop(leg, circle)


def _counting_solves(monkeypatch):
    """The rows of every batched fiber solve, one list per call."""
    from mme import graphcurve

    calls = []
    batch = graphcurve.projective_roots_batch

    def counting(rows, d, near=None):
        calls.append([row.tobytes() for row in rows])
        return batch(rows, d, near=near)

    monkeypatch.setattr(graphcurve, "projective_roots_batch", counting)
    return calls


def test_bisected_loop_matches_a_finer_serial_tracker(monkeypatch):
    # the legs of a loop with a small circle reach close to the critical
    # value in steps too long for the 0.4 sep rule, so they are bisected
    curve = build_graph(rmap([0, -3, 0, 1]))
    plan = _plan_loops(curve)
    base = fiber_at(curve, plan.basepoint)
    path = _near_keyhole(curve, plan, 0)
    calls = _counting_solves(monkeypatch)
    fibers = _track(curve.matrix, curve.degree, [base], [path])[0]
    assert len(calls) >= 3  # level 0 and at least two levels of midpoints
    reference, worst = _serial_reference(curve, base, path)
    assert worst < 0.4
    assert len(fibers) == len(reference)
    for fiber, ref in zip(fibers, reference):
        # the same sheet order; the values agree up to the last bits, as
        # Aberth steps and eigvals round differently
        dist = chordal(*fiber, *ref)
        assert dist.argmin(axis=1).tolist() == list(range(curve.degree))
        assert dist.diagonal().max() <= 1e-12
    standard = _track(curve.matrix, curve.degree, [base], [_full_loop(plan, 0)])[0]
    # a closed loop ends on the base fiber's values, permuted
    perm = _index_permutation(base, fibers[-1])
    assert perm == _index_permutation(base, standard[-1])
    assert sorted(perm) == [0, 1, 2] and perm != (0, 1, 2)


def test_closed_loop_never_solves_its_closing_vertex(monkeypatch):
    from mme import graphcurve

    curve = build_graph(rmap([2, 0, -1, 0, 1], [1, 3, 0, 1]))
    plan = _plan_loops(curve)
    base = fiber_at(curve, plan.basepoint)
    calls = _counting_solves(monkeypatch)
    # the legs from the base fiber, then the circles from their last fibers
    legs = _track(curve.matrix, curve.degree, [base] * len(plan.legs), plan.legs)
    circles = _track(curve.matrix, curve.degree, [f[-1] for f in legs], plan.circles)
    solved = [row for call in calls for row in call]
    # the entry point, where each circle closes, is solved once: as its leg's end
    for entry in (leg[-1] for leg in plan.legs):
        assert solved.count(_fiber_coeffs(curve.matrix, [entry])[0].tobytes()) == 1
    assert _fiber_coeffs(curve.matrix, [plan.basepoint])[0].tobytes() not in solved
    # one assignment per critical value, attributing its cycles; none per step
    assign = graphcurve.linear_sum_assignment
    assigned = []

    def counting(cost):
        assigned.append(cost.shape)
        return assign(cost)

    monkeypatch.setattr(graphcurve, "linear_sum_assignment", counting)
    mon = monodromy(curve)
    assert len(assigned) == len(curve.values)
    # each circle ends on its entry fiber's own values, permuted by the loop
    for leg, fibers, perm in zip(legs, circles, mon.permutations):
        assert fibers[0] is leg[-1]
        for last, own in zip(fibers[-1], leg[-1]):
            assert last.tobytes() == own[list(perm)].tobytes()


def _index_permutation(base, last):
    """perm[i] = j: the sheet that ends at point i of ``last`` started at
    base sheet j, found by looking the point up in the base fiber."""
    base = _points(base)
    return tuple(base.index(x) for x in _points(last))


# z^3 - 3z, (z^6 + 1)/z^3 and the fixed degree 6 to 8 maps of the benchmark's graph jobs
PERMUTATION_MAPS = [
    ([0, -3, 0, 1], [1]),
    ([1, 0, 0, 0, 0, 0, 1], [0, 0, 0, 1]),
    ([5, -1, 1, -4, 0, 3, 1], [5, 1, 3, 5, -3, 0, 5]),
    ([-1, -2, 4, 5, -5, 0, 2, -3], [-2, -5, 1, 1, 0, 4, 1, 5]),
    ([3, -3, -1, -1, -3, -3, 4, 3, -3], [-3, -2, 3, -5, 3, -4, -1, 2, 4]),
]


@pytest.mark.parametrize("coeffs", PERMUTATION_MAPS)
def test_permutations_equal_the_base_fiber_lookup(monkeypatch, coeffs):
    # monodromy reads each permutation by exact equality of the last
    # fiber's points with the entry fiber's; it must equal the lookup of
    # each point
    from mme import graphcurve

    track = graphcurve._track
    seen = []

    def recording(matrix, d, starts, paths):
        seen.append((starts, track(matrix, d, starts, paths)))
        return seen[-1][1]

    monkeypatch.setattr(graphcurve, "_track", recording)
    mon = monodromy(build_graph(rmap(*coeffs)))
    [(_bases, legs), (entries, circles)] = seen
    assert all(entry is leg[-1] for entry, leg in zip(entries, legs))
    assert mon.permutations == [_index_permutation(entry, fibers[-1])
                                for entry, fibers in zip(entries, circles)]


def _assignment_step(old, new):
    """The old step rule: the least-cost assignment from ``old`` to ``new``,
    accepted when it moves no point by 0.4 of the new fiber's separation or more."""
    import scipy.optimize

    cost = chordal(*point_arrays(old), *point_arrays(new))
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    sep = _separation(*point_arrays(new))
    return [new[c] for c in cols], cost[rows, cols].max() < 0.4 * sep


def _nudged(p, size, angle):
    """A point about ``size`` from ``p`` in chordal distance, in the chart
    of z or 1/z where |p| <= 1 (infinity included)."""
    flip = p is INF or abs(p) > 1
    w = 0j if p is INF else (1 / p if flip else p)
    w += size * (1 + abs(w) ** 2) * complex(math.cos(angle), math.sin(angle))
    if not flip:
        return w
    return INF if w == 0 else 1 / w


_coords = st.integers(-192, 192).map(lambda k: k / 64)


@st.composite
def _fiber_steps(draw):
    """(old fiber, new fiber): the old one permuted, each point moved by
    0.01 to 1 times the old fiber's separation."""
    d = draw(st.integers(2, 8))
    old = draw(st.lists(st.one_of(st.just(INF), st.builds(complex, _coords, _coords)),
                        min_size=d, max_size=d, unique_by=lambda p: p))
    if draw(st.booleans()) and old[0] is not INF:
        # two points nearly coincident
        old[1] = old[0] + draw(st.floats(1e-9, 1e-5)) * (1 + abs(old[0]))
    sep = _separation(*point_arrays(old))
    perm = draw(st.permutations(range(d)))
    new = [_nudged(old[i], sep * draw(st.floats(0.01, 1.0)), draw(st.floats(0, 2 * math.pi)))
           for i in perm]
    return old, new


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fiber_steps())
@example(([0j, 1 + 0j, INF], [1.01 + 0j, INF, 0.01j]))  # accepted
@example(([0j, 1 + 0j, INF], [0.5 + 0j, 1.01 + 0j, INF]))  # rejected
# rejected: 0.005 is the nearest new point of both finite points, within 0.4 sep
@example(([0j, 0.01 + 0j, INF], [0.005 + 0j, 1 + 0j, INF]))
def test_nearest_point_steps_decide_as_the_least_cost_assignment(step):
    from mme import graphcurve

    old, new = step
    d = len(old)
    # every abscissa solves to ``new``: the path's first step goes from
    # ``old`` to ``new`` and is bisected to underflow unless accepted
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphcurve, "projective_roots_batch",
                   lambda rows, d, near=None: (*point_arrays([new] * len(rows)), {}))
        [fibers] = _track(np.zeros((2, d + 1), dtype=complex), d, [point_arrays(old)],
                          [[0j, 1 + 0j]])
    moved, accepted = _assignment_step(old, new)
    if accepted:
        assert _points(fibers[-1]) == moved
    else:
        assert isinstance(fibers, TrackingError) and "underflow" in str(fibers)


def test_failure_at_a_midpoint_drops_only_its_path(monkeypatch):
    from mme import graphcurve

    curve = build_graph(rmap([0, -3, 0, 1]))
    plan = _plan_loops(curve)
    base = fiber_at(curve, plan.basepoint)
    paths = [_near_keyhole(curve, plan, 1), _near_keyhole(curve, plan, 0), _full_loop(plan, 2)]
    calls = _counting_solves(monkeypatch)
    _track(curve.matrix, curve.degree, [base], paths[1:2])
    # the first midpoint of the middle path, which level 0 does not solve;
    # the first path's midpoints come before it in the same solve
    bad = calls[1][0]
    assert bad not in calls[0]
    calls.clear()
    _track(curve.matrix, curve.degree, [base] * 3, paths)
    [hit] = [call for call in calls if bad in call]
    assert hit.index(bad) > 0
    monkeypatch.setattr(graphcurve, "projective_roots_batch", _batch_failing_at(bad))
    together = _track(curve.matrix, curve.degree, [base] * 3, paths)
    assert isinstance(together[1], RootFindingError)
    assert len(together[0]) == len(paths[0]) and len(together[2]) == len(paths[2])
    assert _outcome_bits(together) == _each_alone(curve.matrix, curve.degree, [base] * 3, paths)


def test_path_through_a_critical_value_underflows():
    # steps across a double point are rejected at every length, until half
    # a step is below 1e-12; the shorter second path gets there first, and
    # the first one still runs on to its own underflow
    curve = build_graph(rmap([0, -3, 0, 1]))
    b, c = curve.values[:2]
    start = b - 0.25
    paths = [[start, b + 0.25], [start, c - 0.001, c + 0.001]]
    starts = [fiber_at(curve, start)] * 2
    together = _track(curve.matrix, curve.degree, starts, paths)
    for outcome in together:
        assert isinstance(outcome, TrackingError) and "underflow" in str(outcome)
    assert _outcome_bits(together) == _each_alone(curve.matrix, curve.degree, starts, paths)


def test_bisection_stops_at_the_step_budget(monkeypatch):
    # a fiber with two equal points has separation 0, so even a step between
    # two copies of it is rejected: every level bisects every step, and the
    # step count doubles each level until the budget stops the path
    from mme import graphcurve

    fiber = point_arrays([0j, 0j, 1 + 0j])
    rows = []

    def equal_points(coeffs, d, near=None):
        rows.append(len(coeffs))
        # a tracker without the budget stops here instead of running on
        assert sum(rows) <= 10 * BISECTION_BUDGET, "the bisection outran its budget"
        return *(np.repeat(a[None], len(coeffs), axis=0) for a in fiber), {}

    monkeypatch.setattr(graphcurve, "projective_roots_batch", equal_points)
    matrix = np.zeros((2, 4), dtype=complex)
    began = time.perf_counter()
    [outcome] = _track(matrix, 3, [fiber], [[0j, 1 + 0j]])
    assert time.perf_counter() - began < 1.0
    assert isinstance(outcome, TrackingError) and "budget exceeded" in str(outcome)
    # each level solves the midpoints of the one before, twice as many
    assert rows[:4] == [1, 1, 2, 4] and sum(rows) >= BISECTION_BUDGET
    # the budget is per path: a path of two segments meets it too
    rows.clear()
    paths = [[0j, 1 + 0j], [0j, 0.5 + 0j, 1 + 0j]]
    together = _outcome_bits(_track(matrix, 3, [fiber] * 2, paths))
    assert together == [(TrackingError, "path-tracking step budget exceeded")] * 2
    rows.clear()
    assert together == _each_alone(matrix, 3, [fiber] * 2, paths)


def test_cycle_type_must_match_exact_local_degrees():
    # one simple critical point over v: local degrees (2, 1) at 0 and 1
    preimages = [(0j, 2), (1 + 0j, 1)]
    entry = point_arrays([0.1 + 0j, -0.1 + 0j, 1.0 + 0j])
    assert _cycles_at_preimages((1, 0, 2), entry, preimages) == [(0, 1), (2,)]
    with pytest.raises(ConsistencyError):
        _cycles_at_preimages((1, 2, 0), entry, preimages)  # a 3-cycle
    with pytest.raises(ConsistencyError):
        _cycles_at_preimages((0, 1, 2), entry, preimages)  # no branching
    # the 2-cycle sits at the simple preimage: right cycle type, wrong place
    with pytest.raises(ConsistencyError):
        _cycles_at_preimages((0, 2, 1), point_arrays([0j, 0.9 + 0j, 1.1 + 0j]), preimages)
    # both cycles sit nearest 0: no attribution, a numerical failure
    with pytest.raises(TrackingError, match="nearest the same preimage"):
        _cycles_at_preimages((1, 0, 2), point_arrays([0.1 + 0j, -0.1 + 0j, 0.05 + 0j]),
                             preimages)


@st.composite
def _row_minima(draw, shared):
    """A square cost matrix of size 1 to 8, entries k/64, each row with a
    strict minimum: in distinct columns, or with two rows sharing one."""
    n = draw(st.integers(2 if shared else 1, 8))
    cost = np.array(draw(st.lists(st.lists(st.integers(1, 256), min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    cols = draw(st.permutations(range(n)))
    if shared:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        cols[j] = cols[i]
    for i, c in enumerate(cols):
        cost[i, c] = draw(st.integers(0, cost[i].min() - 1))
    return cost / 64


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_row_minima(shared=False))
def test_assignment_of_distinct_row_minima_is_scipys(cost):
    import scipy.optimize

    rows, cols = linear_sum_assignment(cost)
    expected = scipy.optimize.linear_sum_assignment(cost)
    assert rows.tolist() == expected[0].tolist()
    assert cols.tolist() == expected[1].tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_row_minima(shared=True))
def test_assignment_of_a_shared_row_minimum_raises(cost):
    with pytest.raises(TrackingError):
        linear_sum_assignment(cost)


def test_degree_eight_map_lays_out_its_loops():
    # loops around this map's 98 x-plane branch points could not be laid out
    # without overlap; the target line has only 14 critical values
    f = rmap([3, -3, -1, -1, -3, -3, 4, 3, -3], [-3, -2, 3, -5, 3, -4, -1, 2, 4])
    report, _curve, mon, _certs = analyze(f, reconstruct=False)
    assert len(mon.permutations) == 14
    assert sorted((tuple(c["bidegree"]), c["genus"]) for c in report["components"]) == [
        ((1, 1), 0), ((7, 7), 36)]


def _segment_distance(p, a, b):
    t = min(1.0, max(0.0, ((p - a) * np.conj(b - a)).real / abs(b - a) ** 2))
    return abs(p - (a + t * (b - a)))


def _keyhole_one_at_a_time(x0, b, rho):
    """The keyhole about one critical value b, built point by point in
    scalar arithmetic: (leg, circle, corners)."""

    def steps(p, q, step):
        h = min(1.0, step / abs(q - p))
        return [p + i * h * (q - p) for i in range(1, math.ceil(1.0 / h))
                if i * h < 1.0 - 1e-15] + [q]

    entry = b - rho * ((b - x0) / abs(b - x0))
    phi0 = np.angle(entry - b)
    arcs = [entry] + [b + rho * np.exp(1j * (phi0 + 2 * np.pi * k / KEYHOLE_STEPS))
                      for k in range(1, KEYHOLE_STEPS)] + [entry]
    loop = [x0] + arcs + [x0]
    step = sum(abs(q - p) for p, q in zip(loop, loop[1:])) / 64.0
    circle, corners = [entry], [0]
    for p, q in zip(arcs, arcs[1:]):
        circle += steps(p, q, step)
        corners.append(len(circle) - 1)
    return [x0] + steps(x0, entry, step), circle, corners


def test_keyholes_equal_the_scalar_construction():
    # the plan's keyholes, built in one pass, are those built one at a time,
    # bit for bit
    rng = rng_for("keyholes")
    for _ in range(200):
        n = int(rng.integers(2, 15))
        x0 = complex(*rng.normal(size=2) * 3)
        b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-3, 3)
        rho = np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-4, 0)
        legs, circles, corners = _keyholes(x0, b, rho)
        for i in range(n):
            leg, circle, corner = _keyhole_one_at_a_time(x0, b[i], rho[i])
            assert np.array(legs[i]).tobytes() == np.array(leg).tobytes()
            assert np.array(circles[i]).tobytes() == np.array(circle).tobytes()
            assert corners[i] == corner


def test_loop_layout_clears_every_other_disc():
    W = field_configure([1, 1, 1])
    rng = rng_for("loop-layout")
    maps = [rmap([0, -3, 0, 1])]
    maps += [random_rational_map(d, rng, ctx) for ctx in (Q, W) for d in range(2, 9)]
    for f in maps:
        curve = build_graph(f)
        plan = _plan_loops(curve)
        assert plan == _plan_loops(curve)
        x0, b = plan.basepoint, curve.values
        assert all(leg[0] == x0 for leg in plan.legs)
        # each circle closes exactly where its leg ends
        entries = [leg[-1] for leg in plan.legs]
        assert all(c[0] == c[-1] == e for c, e in zip(plan.circles, entries))
        for i, (leg, circle, corners) in enumerate(zip(plan.legs, plan.circles, plan.corners)):
            assert len(corners) == KEYHOLE_STEPS + 1
            assert corners[0] == 0 and corners[-1] == len(circle) - 1
            # level 0 steps a 64th of the loop leg . circle . leg^-1, the
            # last step of each leg and arc a shorter one
            loop = _full_loop(plan, i)
            step = sum(abs(q - p) for p, q in zip(loop, loop[1:])) / 64
            assert len(leg) - 1 == math.ceil(abs(entries[i] - x0) / step - 1e-9)
            for p, q in zip(leg[:-2], leg[1:-1]):
                assert abs(abs(q - p) - step) < 1e-9 * step
            assert all(abs(q - p) <= step * (1 + 1e-9) for p, q in zip(loop, loop[1:]))
        rho = [abs(e - v) for e, v in zip(entries, b)]
        for i in range(len(b)):
            for j in range(len(b)):
                if i != j:
                    assert abs(b[i] - b[j]) > rho[i] + rho[j]
                    assert _segment_distance(b[j], x0, entries[i]) > 1.5 * rho[j], (f, i, j)


X_MINUS_Y = [["0", "-1"], ["1", "0"]]

# non-float report fields of three maps, as the analysis that tracked loops
# in the x-plane reported them; each partition is keyed by its branch point
# (given to 9 decimals), because branch_points come in critical-value order
PINNED_REPORTS = [
    (([0, -3, 0, 1], [1]), ([None, -1, -2, 1, 2], [
        ([1, 1], 0, True, [[1]] * 5, X_MINUS_Y),
        ([2, 2], 0, False, [[1, 1], [1, 1], [2], [1, 1], [2]],
         [["-3", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]),
    ])),
    (([1, -2, 0, 3], [2, 1, 1, 1]), ([
        -0.560722162, -0.581399568 - 1.212274948j, -0.581399568 + 1.212274948j, -0.980176009,
        -1.642691276 - 1.760175462j, -1.642691276 + 1.760175462j, 0.512771381, 1.628689429,
    ], [
        ([1, 1], 0, True, [[1]] * 8, X_MINUS_Y),
        ([2, 2], 1, False, [[1, 1], [2], [2], [2], [1, 1], [1, 1], [1, 1], [2]],
         [["-5/3", "-1/3", "5/3"], ["-1/3", "7/3", "5/3"], ["5/3", "5/3", "1"]]),
    ])),
    (([2, 0, -1, 0, 1], [1, 3, 0, 1]), ([
        -0.106239343 - 0.65426834j, -0.106239343 + 0.65426834j,
        -0.325219817 - 0.114174993j, -0.325219817 + 0.114174993j,
        -0.848710321 - 0.859576301j, -0.848710321 + 0.859576301j,
        -1.065307226 - 1.386546712j, -1.065307226 + 1.386546712j, -1.194643363,
        0.161911136 - 1.419877966j, 0.161911136 + 1.419877966j,
        0.17967997 - 3.298180366j, 0.17967997 + 3.298180366j,
        0.890409893 - 1.01729373j, 0.890409893 + 1.01729373j, 1.047762109,
        1.986916335 - 1.090479576j, 1.986916335 + 1.090479576j,
    ], [
        ([1, 1], 0, True, [[1]] * 18, X_MINUS_Y),
        ([3, 3], 4, False, [[1, 1, 1], [1, 1, 1]] + [[1, 2]] * 6 + [[1, 1, 1]]
         + [[1, 2]] * 2 + [[1, 1, 1]] * 2 + [[1, 2]] * 2 + [[1, 1, 1]] + [[1, 2]] * 2,
         [["-6", "-1", "-2", "1"], ["-1", "-5", "1", "3"], ["-2", "1", "4", "0"],
          ["1", "3", "0", "1"]]),
    ])),
]


def _branch_index(points, p):
    """Index of the reported branch point at p (None for infinity)."""
    if p is None:
        return points.index("inf")
    dists = [abs(complex(*q) - p) if q != "inf" else math.inf for q in points]
    assert min(dists) < 1e-8
    return dists.index(min(dists))


@pytest.mark.parametrize("coeffs,expected", PINNED_REPORTS)
def test_report_fields_are_pinned(coeffs, expected):
    points, expected = expected
    report, *_ = analyze(rmap(*coeffs))
    where = [_branch_index(report["branch_points"], p) for p in points]
    assert sorted(where) == list(range(len(report["branch_points"])))
    got = [
        (c["bidegree"], c["genus"], c["is_diagonal"], [c["ramification"][k] for k in where],
         c["exact_poly"])
        for c in report["components"]
    ]
    assert got == expected


def _refusing_fits(monkeypatch):
    from mme import graphcurve

    def refuse(points, r):
        raise AssertionError("a two-orbit map fitted a vanishing relation")

    monkeypatch.setattr(graphcurve, "_vanishing_relation", refuse)


@pytest.mark.parametrize("coeffs,expected", PINNED_REPORTS)
def test_pinned_two_orbit_maps_are_certified_without_a_fit(monkeypatch, coeffs, expected):
    _refusing_fits(monkeypatch)
    report, *_ = analyze(rmap(*coeffs))
    assert [c["exact_poly"] for c in report["components"]] == [e[-1] for e in expected[1]]


def test_two_orbit_maps_over_q_and_q_omega_are_certified_without_a_fit(monkeypatch):
    # each off-diagonal factor as the fit certified it before division did
    W = field_configure([1, 1, 1])
    w = W.gen()
    cubic = RationalMap(Poly(W, [w, 0, 1, 2]), Poly(W, [1, 0, w]))
    cases = [
        (rmap([1, 2, 1], [2, -1, 3]), [["-5/7", "1/7"], ["1/7", "1"]]),
        (cubic, [["0", ["-1/2", "-1"], ["-1", "-1"]], [["-1/2", "-1"], ["-1", "-1"], "0"],
                 [["-1", "-1"], "0", "1"]]),
    ]
    _refusing_fits(monkeypatch)
    for f, factor in cases:
        report, *_ = analyze(f)
        assert [c["exact_poly"] for c in report["components"]] == [X_MINUS_Y, factor]


def test_power_map_z4_fits_each_off_diagonal_line(monkeypatch):
    # four (1, 1) orbits: the three lines x = c y, c^4 = 1 and c != 1, are
    # fitted, and only x + y is defined over Q
    from mme import graphcurve

    fit = graphcurve._vanishing_relation
    fitted = []

    def counting(points, r):
        fitted.append(r)
        return fit(points, r)

    monkeypatch.setattr(graphcurve, "_vanishing_relation", counting)
    report, _c, _m, certs = analyze(rmap([0, 0, 0, 0, 1]))
    assert fitted == [1, 1, 1]
    assert [cert.relation is not None for cert in certs] == [False, True, True, True]
    assert [c.get("exact_poly") for c in report["components"]] == [
        X_MINUS_Y, None, None, [["0", "1"], ["1", "0"]]]


# -- legs and circles against whole keyhole loops --------------------------------------


def _keyhole_permutations(curve, plan):
    """The permutations as the whole keyhole loops [x0, entry, circle..., entry,
    x0] give them, each tracked from the base fiber and looked up in it."""
    base = fiber_at(curve, plan.basepoint)
    loops = [_full_loop(plan, i) for i in range(len(plan.legs))]
    perms = []
    for fibers in _track(curve.matrix, curve.degree, [base] * len(loops), loops):
        if isinstance(fibers, Exception):
            raise fibers
        perms.append(_index_permutation(base, fibers[-1]))
    return perms


def _permutation_maps():
    W = field_configure([1, 1, 1])
    rng = rng_for("legs-and-circles")
    maps = [rmap(*coeffs) for coeffs, _expected in PINNED_REPORTS]
    return maps + [random_rational_map(d, rng, ctx) for ctx in (Q, W) for d in range(2, 9)
                   for _ in range(2)]


def test_monodromy_equals_tracking_whole_keyhole_loops():
    compared = 0
    for f in _permutation_maps():
        curve = build_graph(f)
        try:
            mon = monodromy(curve)
        except (TrackingError, RootFindingError) as exc:
            # a leg or circle that fails also fails inside its whole loop
            with pytest.raises(type(exc)):
                _keyhole_permutations(curve, _plan_loops(curve))
            continue
        except ConsistencyError:
            continue
        assert mon.permutations == _keyhole_permutations(curve, _plan_loops(curve)), f
        compared += 1
    assert compared >= 25


def test_tracked_fibers_rarely_need_eigvals(monkeypatch):
    # a fiber solved from a seed fiber skips the companion matrices; a
    # silent fallback to eigvals on every row would fail this
    from mme import numeric

    for coeffs, _expected in PINNED_REPORTS:
        curve = build_graph(rmap(*coeffs))
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_solves(mp)
            companion = numeric._companion_roots
            eigvals = []
            mp.setattr(numeric, "_companion_roots",
                       lambda desc: eigvals.append(len(desc)) or companion(desc))
            monodromy(curve)
        tracked = sum(map(len, calls))
        assert tracked > 100
        assert sum(eigvals) <= 0.01 * tracked


def test_seeds_leave_permutations_and_reports_unchanged(monkeypatch):
    from mme import graphcurve

    batch = graphcurve.projective_roots_batch

    def outcome(f):
        try:
            report, _curve, mon, _certs = analyze(f)
        except (TrackingError, RootFindingError, ConsistencyError) as exc:
            return type(exc), str(exc)
        return mon.permutations, report

    maps = _permutation_maps()
    seeded = [outcome(f) for f in maps]
    monkeypatch.setattr(graphcurve, "projective_roots_batch",
                        lambda rows, d, near=None: batch(rows, d))
    assert [outcome(f) for f in maps] == seeded
    assert sum(isinstance(out[1], dict) for out in seeded) >= 25


def test_default_chunks_solve_each_level_at_once():
    from mme import graphcurve

    for coeffs, _expected in PINNED_REPORTS:
        curve = build_graph(rmap(*coeffs))
        with pytest.MonkeyPatch.context() as mp:
            default = _counting_solves(mp)
            monodromy(curve)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphcurve, "CHUNK_ENTRIES", 2**62)
            unbounded = _counting_solves(mp)
            monodromy(curve)
        assert len(default) == len(unbounded)


# -- branch data -----------------------------------------------------------------------


def _branch_data_by_value(G):
    """_branch_data as a loop of one G.preimages solve per critical value."""
    out = []
    for v, group in critical_data(G).value_groups:
        roots = list(G.preimages(v))
        if sum(m + 1 for _p, m in group) > len(roots):
            raise TrackingError("critical points of one critical value exceed its fiber")
        pre = []
        for p, m in group:
            dist = chordal2(homogeneous(*point_arrays(roots)),
                            homogeneous(*point_arrays([p])))[:, 0]
            near = set(np.argsort(dist, kind="stable")[:m + 1].tolist())
            roots = [y for i, y in enumerate(roots) if i not in near]
            pre.append((p, m + 1))
        pre += [(y, 1) for y in roots]
        if min_pairwise_chordal2(homogeneous(*point_arrays([p for p, _e in pre]))) < 1e-8:
            raise TrackingError("preimages of a critical value are too close to tell apart")
        out.append((v, pre))
    return out


def _point_bits(p):
    return "inf" if p is INF else np.complex128(p).tobytes()


def _recording_batches(monkeypatch):
    """A copy of the rows of every projective_roots_batch call of graphcurve."""
    from mme import graphcurve

    calls = []
    batch = graphcurve.projective_roots_batch

    def recording(rows, d, near=None):
        calls.append(np.array(rows))
        return batch(rows, d, near=near)

    monkeypatch.setattr(graphcurve, "projective_roots_batch", recording)
    return calls


# z^3 + z^2: 0 is a critical point over the critical value 0, so that
# value's row has a zero constant term; T_4 = 8z^4 - 8z^2 + 1: two critical
# points, +-1/sqrt(2), over the critical value -1
@pytest.mark.parametrize("coeffs", [c for c, _e in PINNED_REPORTS]
                         + [([0, 0, 1, 1], [1]), ([1, 0, -8, 0, 8], [1])])
def test_branch_data_is_one_batch_equal_to_a_solve_per_value(monkeypatch, coeffs):
    from mme import graphcurve, numeric

    G = rmap(*coeffs)
    want = _branch_data_by_value(G)
    calls = _recording_batches(monkeypatch)
    scalar = []
    roots = numeric.projective_roots
    monkeypatch.setattr(numeric, "projective_roots",
                        lambda c, d, **kw: scalar.append(c.copy()) or roots(c, d, **kw))
    got = graphcurve._branch_data(G)
    assert [(_point_bits(v), [(_point_bits(p), e) for p, e in pre]) for v, pre in got] == [
        (_point_bits(v), [(_point_bits(p), e) for p, e in pre]) for v, pre in want]
    [rows] = calls
    nc, dc = G.numeric_pair()
    for (v, _pre), row in zip(got, rows):
        assert row.tobytes() == (dc if v is INF else G.preimage_row(v)).tobytes()
    # exactly the rows with a root at 0 or at infinity take the scalar route
    assert [c.tobytes() for c in scalar] == [
        row.tobytes() for row in rows if row[0] == 0 or abs(row[-1]) <= 1e-13 * abs(row).max()]
    if coeffs[1] == [1]:  # a polynomial: its critical value infinity has the row den
        assert any(v is INF for v, _pre in got)
    if coeffs == ([0, 0, 1, 1], [1]):
        assert any(row[0] == 0 for row in rows)


@pytest.mark.parametrize("k", [0, 2, 3])
def test_branch_data_raises_a_failed_row_as_the_loop_does(monkeypatch, k):
    from mme import graphcurve, numeric

    G = rmap([1, -2, 0, 3], [2, 1, 1, 1])  # four critical values
    error = RootFindingError("forced failure")
    solves = []
    roots = numeric.projective_roots

    def failing(coeffs, d, **kw):
        solves.append(coeffs)
        if len(solves) == k + 1:
            raise error
        return roots(coeffs, d, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numeric, "projective_roots", failing)
        with pytest.raises(RootFindingError) as loop:
            _branch_data_by_value(G)
    assert loop.value is error and len(solves) == k + 1
    batch = graphcurve.projective_roots_batch

    def failing_batch(rows, d):
        # row k and every row after it fail; row k's error is raised
        z, inf, failed = batch(rows, d)
        later = {j: RootFindingError("a later row") for j in range(k + 1, len(rows))}
        return z, inf, {**failed, k: error, **later}

    monkeypatch.setattr(graphcurve, "projective_roots_batch", failing_batch)
    with pytest.raises(RootFindingError) as batched:
        graphcurve._branch_data(G)
    assert batched.value is error


def _recording_abscissae(monkeypatch):
    """The abscissae of every fiber coefficient row built, one list per call."""
    from mme import graphcurve

    calls = []
    coeffs = graphcurve._fiber_coeffs

    def recording(matrix, ts):
        calls.append(list(ts))
        return coeffs(matrix, ts)

    monkeypatch.setattr(graphcurve, "_fiber_coeffs", recording)
    return calls


def _on_a_step(x, steps):
    """Whether x is a + t (b - a), bit for bit, for one of the level-0 steps
    (a, b) and a dyadic t in (0, 1): a point that bisection solves."""
    for a, b in steps:
        t = round(((x - a) / (b - a)).real * 2**40) / 2**40
        if 0.0 < t < 1.0 and a + t * (b - a) == x:
            return True
    return False


@pytest.mark.parametrize("coeffs", [c for c, _e in PINNED_REPORTS] + PERMUTATION_MAPS[3:4])
def test_no_row_is_solved_on_a_return_leg(monkeypatch, coeffs):
    curve = build_graph(rmap(*coeffs))
    plan = _plan_loops(curve)
    calls = _recording_abscissae(monkeypatch)
    monodromy(curve)
    [base], *batches = calls
    assert base == plan.basepoint
    rows = [t for ts in batches for t in ts]
    # no row twice; the rows are level 0 (every leg vertex after the
    # basepoint, every circle vertex strictly inside it) and bisection
    # points of leg and circle steps
    assert len(set(rows)) == len(rows)
    level0 = {t for leg in plan.legs for t in leg[1:]}
    level0 |= {t for circle in plan.circles for t in circle[1:-1]}
    assert level0 <= set(rows)
    steps = [s for path in plan.legs + plan.circles for s in zip(path, path[1:])]
    assert all(_on_a_step(t, steps) for t in set(rows) - level0)
    # tracking the whole keyhole loops solves every leg's level-0 rows twice
    calls.clear()
    _keyhole_permutations(curve, plan)
    whole = sum(len(ts) for ts in calls[1:])
    assert whole - len(rows) >= sum(len(leg) - 1 for leg in plan.legs)
