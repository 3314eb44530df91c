import mpmath
import numpy as np
import pytest

from mme import numeric
from mme.fields import FieldContext, field_configure
from mme.polys import Poly
from mme.ratmaps import RationalMap, critical_data
from mme.numeric import (
    INF,
    chordal,
    chordal2,
    homogeneous,
    min_pairwise_chordal2,
    point_arrays,
    projective_roots,
    projective_roots_batch,
    rationalize_into_field,
)
from conftest import rng_for


def complex_normal(rng, *shape):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * np.exp(rng.normal(size=shape))


def same_points(a, b):
    """Equal point lists, bit for bit (INF only matches INF)."""
    def bits(p):
        return "inf" if p is INF else np.complex128(p).tobytes()

    return len(a) == len(b) and all(bits(p) == bits(q) for p, q in zip(a, b))


def assert_rows_equal(z, inf, rows, d, **kwargs):
    """(z, inf) from projective_roots_batch equal projective_roots on each
    row, bit for bit, INF included, with 0 at every INF."""
    assert z.shape == inf.shape == (len(rows), d)
    assert z.dtype == complex and inf.dtype == bool
    for zs, infs, row in zip(z, inf, rows):
        assert same_points([INF if i else w for w, i in zip(zs, infs)],
                           projective_roots(row, d, **kwargs))
        assert not zs[infs].any()


def test_batched_roots_equal_single_row_roots(monkeypatch):
    escalations = []
    polyroots = mpmath.polyroots

    def counting_polyroots(coeffs, *args, **kwargs):
        escalations.append(1)
        if complex(coeffs[0]) == 7:  # the leading coefficient of the row made to fail
            raise mpmath.libmp.NoConvergence("forced failure")
        return polyroots(coeffs, *args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", counting_polyroots)
    rng = rng_for("batched-roots")
    for d in range(1, 9):
        rows = complex_normal(rng, 6, d + 1)
        rows[0, d] = 0  # a root at infinity
        rows[1, d] = 1e-15 * rows[1, 0]  # below the infinity threshold
        rows[2, 0] = 0  # a root at zero
        z, inf, failed = projective_roots_batch(rows, d)
        assert failed == {}
        assert_rows_equal(z, inf, rows, d)
        assert inf[0, -1] and inf[1, -1] and z[2].tolist().count(0j) >= 1
        assert not inf[2:].any()
    assert not escalations
    # the companion roots of these rows pass the residual check, so rows
    # are made to fail it, in the batched and in the single-row path alike:
    # row 1 is then solved by mpmath, and mpmath fails on row 3, which
    # drops only row 3
    rows = np.array(
        [np.poly([1, 2, 3])[::-1], [0.5, -1.5, 1j, 1], [1, 2, 3, 0], [1, 2, 3, 7],
         [1, 2, 3, 4], [0, 2, 3, 4]], dtype=complex
    )
    certified = numeric._certified_rows
    failing = {rows[i, ::-1].tobytes() for i in (1, 3)}

    def failing_certified_rows(coeffs, roots):
        return certified(coeffs, roots) & ~np.array([c.tobytes() in failing for c in coeffs])

    monkeypatch.setattr(numeric, "_certified_rows", failing_certified_rows)
    z, inf, failed = projective_roots_batch(rows, 3)
    assert list(failed) == [3] and isinstance(failed[3], numeric.RootFindingError)
    assert len(escalations) == 2  # rows 1 and 3
    good = [0, 1, 2, 4, 5]
    assert_rows_equal(z[good], inf[good], rows[good], 3)
    assert len(escalations) == 3
    assert inf[2].tolist() == [False, False, True]
    assert not z[3].any() and not inf[3].any()
    with pytest.raises(numeric.RootFindingError) as alone:
        projective_roots(rows[3], 3)
    assert str(failed[3]) == str(alone.value)
    # without the failing row every row is returned the same
    z2, inf2, failed = projective_roots_batch(rows[good], 3)
    assert failed == {}
    assert z2.tobytes() == z[good].tobytes() and inf2.tobytes() == inf[good].tobytes()
    # a first row that fails drops only itself
    z, inf, failed = projective_roots_batch(rows[3:], 3)
    assert list(failed) == [0] and z.shape == inf.shape == (3, 3)
    assert_rows_equal(z[1:], inf[1:], rows[4:], 3)


def test_unrefined_batched_roots_equal_single_row_roots(monkeypatch):
    # the sampler's rows: companion roots kept unpolished, a double root
    # among them, all within RESIDUAL_TOL with no mpmath escalation
    escalations = []
    polyroots = mpmath.polyroots

    def counting_polyroots(coeffs, *args, **kwargs):
        escalations.append(1)
        return polyroots(coeffs, *args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", counting_polyroots)
    rng = rng_for("unrefined-batched-roots")
    for d in range(1, 9):
        rows = complex_normal(rng, 6, d + 1)
        rows[0, d] = 0  # a root at infinity
        rows[1, d] = 1e-15 * rows[1, 0]  # below the infinity threshold
        rows[2, 0] = 0  # a root at zero
        if d >= 2:
            rows[3] = np.poly([0.5, 0.5] + [1j] * (d - 2))[::-1]  # a double root
        z, inf, failed = projective_roots_batch(rows, d)
        assert failed == {}
        assert_rows_equal(z, inf, rows, d)
        assert inf[0, -1] and inf[1, -1]
    assert not escalations


def test_certified_roots_off_degree_two_equal_np_roots():
    # certified_roots solves through _companion_roots, which keeps np.roots'
    # companion matrices for every degree but 2; roots at 0 come last
    rng = rng_for("certified-roots-np-roots")
    for n in (0, 1, 3, 4, 5, 6, 7, 8):
        for zeros in range(3):
            if n + zeros == 0:
                continue
            for _ in range(4):
                c = np.concatenate([np.zeros(zeros), complex_normal(rng, n + 1)])
                want = np.asarray(np.roots(c[::-1]), dtype=complex)
                got = numeric.certified_roots(c)
                assert got.tobytes() == want.tobytes() and not got[n:].any()


def _reference_quadratic_roots(row):
    """The roots of the descending row (a, b, c): mpmath.polyroots at 50
    digits, or, when |b| > 1e100, the quadratic formula at 500 digits, since
    polyroots sets a root below its working precision relative to the
    largest one to 0."""
    a, b, c = (mpmath.mpc(x) for x in row)
    if abs(b) <= 1e100:
        with mpmath.workdps(50):
            return mpmath.polyroots([a, b, c], maxsteps=200, extraprec=100)
    with mpmath.workdps(500):
        s = mpmath.sqrt(b * b - 4 * a * c)
        return [(-b + s) / (2 * a), (-b - s) / (2 * a)]


def _quadratic_errors(rows, roots):
    """Per row, the largest relative error of ``roots`` against the reference,
    under the better of the two pairings."""
    errors = []
    for row, z in zip(rows, roots):
        want = _reference_quadratic_roots(row)
        errors.append(min(
            max(float(abs(mpmath.mpc(z[i]) - want[j]) / abs(want[j])) for i, j in enumerate(perm))
            for perm in ((0, 1), (1, 0))))
    return np.array(errors)


def test_degree_two_closed_form_is_as_accurate_as_eigvals():
    rng = rng_for("degree-two-closed-form")
    base, gap = complex_normal(rng, 100), 1e-8 * complex_normal(rng, 100)
    a, b = np.abs(rng.normal(size=100)), rng.normal(size=100)
    cases = {
        "spread": complex_normal(rng, 200, 3) * np.exp(8 * rng.normal(size=(200, 3))),
        "near-double": np.stack([np.ones(100), -(2 * base + gap), base * (base + gap)], axis=1),
        # real rows with b^2 < 4ac
        "real, complex roots": np.stack(
            [a, b, b * b / (4 * a) + np.abs(rng.normal(size=100))], axis=1),
        "huge b": np.stack([complex_normal(rng, 100), 1e200 * complex_normal(rng, 100),
                            complex_normal(rng, 100)], axis=1),
        # real roots and imaginary roots have a zero part each
        "zero parts": np.array([[1, 0, 1], [1, 0, -1], [2, 0, 8], [1, -3, 2], [1, 2, 1],
                                [-1, 0, -4], [1j, 0, 1j], [1e-300, 0, 1e-300]]),
    }
    for name, rows in cases.items():
        rows = np.asarray(rows, dtype=complex)
        z = numeric._companion_roots(rows)
        assert np.isfinite(z).all(), name
        parts = np.concatenate([z.real.ravel(), z.imag.ravel()])
        assert not np.signbit(parts[parts == 0]).any(), name
        # a row alone gives the roots it gives in the stack
        for row, roots in zip(rows, z):
            assert numeric._companion_roots(row[None, :])[0].tobytes() == roots.tobytes()
        eig = np.array([np.roots(row) for row in rows])
        assert _quadratic_errors(rows, z).max() <= _quadratic_errors(rows, eig).max(), name


def _counting_companion(monkeypatch):
    """The rows (descending) of every companion-matrix solve, one list per call."""
    calls = []
    companion = numeric._companion_roots

    def counting(desc):
        calls.append([row.tobytes() for row in desc])
        return companion(desc)

    monkeypatch.setattr(numeric, "_companion_roots", counting)
    return calls


def test_unseeded_full_degree_stacks_take_one_companion_solve(monkeypatch):
    calls = _counting_companion(monkeypatch)
    rng = rng_for("one-companion-solve")
    rows = complex_normal(rng, 9, 3)
    z, inf, failed = projective_roots_batch(rows, 2)
    assert failed == {} and calls == [[row[::-1].tobytes() for row in rows]]
    assert_rows_equal(z, inf, rows, 2)
    # row 4 fails its residual check, and then mpmath fails on it: row 4
    # alone goes through projective_roots, whose one companion solve is of
    # row 4 alone, with no second companion solve of the stack, and every
    # other row comes back beside row 4's RootFindingError
    rows[4] = [1, 2, 7]
    certified = numeric._certified_rows
    failing = rows[4, ::-1].tobytes()

    def failing_certified_rows(coeffs, roots):
        return certified(coeffs, roots) & np.array([c.tobytes() != failing for c in coeffs])

    polyroots = mpmath.polyroots

    def failing_polyroots(coeffs, *args, **kwargs):
        if complex(coeffs[0]) == 7:
            raise mpmath.libmp.NoConvergence("forced failure")
        return polyroots(coeffs, *args, **kwargs)

    monkeypatch.setattr(numeric, "_certified_rows", failing_certified_rows)
    monkeypatch.setattr(mpmath, "polyroots", failing_polyroots)
    with pytest.raises(numeric.RootFindingError) as alone:
        projective_roots(rows[4], 2)
    calls.clear()
    z, inf, failed = projective_roots_batch(rows, 2)
    assert list(failed) == [4] and str(failed[4]) == str(alone.value)
    assert calls == [[row[::-1].tobytes() for row in rows], [failing]]
    good = [0, 1, 2, 3, 5, 6, 7, 8]
    assert_rows_equal(z[good], inf[good], rows[good], 2)


def test_seeded_rows_converge_to_the_companion_roots(monkeypatch):
    rng = rng_for("seeded-roots")
    calls = _counting_companion(monkeypatch)
    kept = total = 0
    for d in range(2, 9):
        rows = complex_normal(rng, 20, d + 1)
        want, want_inf, _failed = projective_roots_batch(rows, d)
        assert not want_inf.any()
        seeds = want + 1e-6 * (1 + np.abs(want)) * complex_normal(rng, 20, d)
        calls.clear()
        z, inf, failed = projective_roots_batch(rows, d, near=(seeds, want_inf))
        assert failed == {} and not inf.any()
        # the same root set: each root's nearest companion root is its own
        dist = np.abs(z[:, :, None] - want[:, None, :])
        assert (np.sort(dist.argmin(axis=2), axis=1) == np.arange(d)).all()
        assert (dist.min(axis=2) <= 1e-12 * np.maximum(1.0, np.abs(z))).all()
        assert (numeric._residuals(rows[:, ::-1], z) < numeric.RESIDUAL_TOL).all()
        kept += len(rows) - sum(map(len, calls))
        total += len(rows)
    assert kept >= 0.9 * total


def test_unconvergeable_seeds_take_the_companion_route(monkeypatch):
    calls = _counting_companion(monkeypatch)
    good = np.poly([1, 2j, -3])[::-1]
    double = np.poly([1, 1, -1])[::-1]  # p rounds to 0 at points of the double root
    rows = np.array([good, good, good, double], dtype=complex)
    roots = [1, 2j, -3]
    seeds = np.array([roots, [1, 1, -3], roots, [1 - 1e-9, 1 + 1e-9j, -1]], dtype=complex)
    inf = np.zeros((4, 3), dtype=bool)
    inf[2, 1] = True
    # row 0 is kept from its seed; rows 1 (two equal points), 2 (INF) and 3
    # (discs that overlap at the double root) are solved as without a seed
    z, zinf, failed = projective_roots_batch(rows, 3, near=(seeds, inf))
    assert failed == {}
    assert calls == [[row[::-1].tobytes() for row in rows[1:]]]
    assert_rows_equal(z[1:], zinf[1:], rows[1:], 3)
    assert np.abs(np.sort_complex(z[0]) - np.sort_complex(roots)).max() < 1e-15
    # a seed that the step cap stops short of convergence: one Aberth step
    # from 1e-4 away gets within 1e-12, with disjoint discs, but its last
    # correction is far above ABERTH_TOL
    monkeypatch.setattr(numeric, "ABERTH_ITERS", 1)
    calls.clear()
    near = np.array([roots], dtype=complex) + 1e-4 * (1 + 1j)
    z, zinf, failed = projective_roots_batch(rows[:1], 3, near=(near, inf[:1]))
    assert failed == {} and len(calls) == 1
    assert_rows_equal(z, zinf, rows[:1], 3)


def test_seeded_batches_solve_every_row_past_a_failed_one(monkeypatch):
    polyroots = mpmath.polyroots

    def failing_polyroots(coeffs, *args, **kwargs):
        if complex(coeffs[0]) == 7:
            raise mpmath.libmp.NoConvergence("forced failure")
        return polyroots(coeffs, *args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", failing_polyroots)
    rows = np.array([np.poly([1, 2, 3])[::-1], [0, 2, 3, 4], [1, 2, 3, 7], [1, 2, 3, 4]],
                    dtype=complex)
    certified = numeric._certified_rows
    failing = rows[2, ::-1].tobytes()

    def failing_certified_rows(coeffs, roots):
        return certified(coeffs, roots) & np.array([c.tobytes() != failing for c in coeffs])

    monkeypatch.setattr(numeric, "_certified_rows", failing_certified_rows)
    seeds = np.array([[1, 2, 3], [1, 2, 3], [1, 1, 1], [1, 2, 3]], dtype=complex)
    inf = np.zeros((4, 3), dtype=bool)
    # row 2's seed has two equal points, so the row goes to the companion
    # route, then to mpmath, which fails; every other row is returned
    z, zinf, failed = projective_roots_batch(rows, 3, near=(seeds, inf))
    assert list(failed) == [2] and isinstance(failed[2], numeric.RootFindingError)
    assert z.shape == zinf.shape == (4, 3)
    assert np.abs(np.sort_complex(z[0]) - [1, 2, 3]).max() < 1e-14
    assert_rows_equal(z[1:2], zinf[1:2], rows[1:2], 3)
    # each row is what it is when solved alone
    for k in range(4):
        alone = projective_roots_batch(rows[k:k + 1], 3, near=(seeds[k:k + 1], inf[k:k + 1]))
        assert alone[0].tobytes() == z[k:k + 1].tobytes()
        assert list(alone[2]) == ([0] if k == 2 else [])


def _chordal_mp(p, q):
    """The chordal distance of p and q at 50 digits, rounded once."""
    with mpmath.workdps(50):
        if p is INF or q is INF:
            if p is q:
                return 0.0
            w = mpmath.mpc(q if p is INF else p)
            return float(1 / mpmath.sqrt(1 + abs(w) ** 2))
        p, q = mpmath.mpc(p), mpmath.mpc(q)
        return float(abs(p - q) / mpmath.sqrt((1 + abs(p) ** 2) * (1 + abs(q) ** 2)))


def test_homogeneous_determinant_distance():
    rng = rng_for("homogeneous-chordal")
    eps = np.finfo(float).eps
    special = [INF, 0j, 1e150 + 0j, -1e150j, 1e150 * (1 + 1j), 1 + 0j, 1 + 1e-12 + 0j,
               1e-12j, 3e5 - 2e5j]
    for trial in range(100):
        a = list((rng.normal(size=6) + 1j * rng.normal(size=6)) * 10.0 ** rng.integers(-4, 5))
        p = a[trial % 6] = special[trial % len(special)]
        # a point about 1e-12 from p in chordal distance, in the chart of z or 1/z
        if p is INF or abs(p) > 1:
            w = 0j if p is INF else 1 / p
            a[(trial + 1) % 6] = 1 / (w + 1e-12 * (1 + abs(w) ** 2))
        else:
            a[(trial + 1) % 6] = p + 1e-12 * (1 + abs(p) ** 2)
        b = special[trial % 3:] + a
        ha, hb = homogeneous(*point_arrays(a)), homogeneous(*point_arrays(b))
        got = chordal(*point_arrays(a), *point_arrays(b))
        assert got.tobytes() == np.sqrt(chordal2(ha, hb)).tobytes()
        exact = np.array([[_chordal_mp(p, q) for q in b] for p in a])
        assert np.abs(got - exact).max() <= 4 * eps
        pairs = exact[:, len(b) - 6:][~np.eye(6, dtype=bool)]  # a against itself
        assert abs(np.sqrt(min_pairwise_chordal2(ha)) - pairs.min()) <= 4 * eps
        # equal points are at exactly 0: a step between equal fibers costs nothing
        assert (np.diagonal(chordal2(ha, ha)) == 0).all()
    # u, v: unit norm, v >= 0 real, INF = (1, 0)
    h = homogeneous(*point_arrays(special))
    assert np.abs((h * h).sum(axis=0) - 1).max() <= 2 * eps and (h[2] >= 0).all()
    assert h[:, 0].tolist() == [1.0, 0.0, 0.0] and h[:, 1].tolist() == [0.0, 0.0, 1.0]
    # stacked inputs give the stack of the single results
    z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    inf = np.zeros(z.shape, dtype=bool)
    inf[2, 1] = True
    h = homogeneous(z, inf)
    assert h.shape == (4, 3, 5)
    stacked = chordal2(h, h[::-1])
    for k in range(4):
        assert h[k].tobytes() == homogeneous(z[k], inf[k]).tobytes()
        assert stacked[k].tobytes() == chordal2(h[k], h[3 - k]).tobytes()
    assert list(min_pairwise_chordal2(h)) == [min_pairwise_chordal2(x) for x in h]
    for few in ([], [1j], [INF], [[2.0], [INF]]):
        assert (min_pairwise_chordal2(homogeneous(*point_arrays(few))) == np.inf).all()


def test_chordal_distance_past_the_square_overflow():
    # |a|^2 overflows from about 1e154 on, so (1 + |a|^2)(1 + |b|^2) gives
    # these distances as 0 or nan; the determinant needs no square
    far = [1e160 + 0j, 0j, 1e200 + 0j, 1 + 0j, 1e300 + 0j, 1e-300j, INF]
    # pairs 1e-12 apart in relative terms, at |z| = 1e200
    near = [1e200j, 1e200j * (1 + 1e-12), -1e200 + 0j, -1e200 * (1 + 1e-12j)]
    points = point_arrays(far + near)
    with np.errstate(over="raise", invalid="raise"):
        got = chordal(*points, *points)
        h = homogeneous(*points)
        assert got.tobytes() == np.sqrt(chordal2(h, h)).tobytes()
    exact = np.array([[_chordal_mp(p, q) for q in far + near] for p in far + near])
    assert np.abs(got - exact).max() <= 4 * np.finfo(float).eps
    assert got[0, 1] == got[1, 0] == 1.0
    assert abs(got[2, 3] - 0.5 ** 0.5) <= 4 * np.finfo(float).eps  # 1 is on the equator
    assert (np.diagonal(got) == 0).all()


def test_residuals_past_the_power_overflow():
    # here scale * |r|^n passes 1e308: a residual that formed it would read
    # 0 whatever p(r) is, and raise under this errstate
    Q = FieldContext.rationals()
    with np.errstate(over="raise", invalid="raise"):
        f = RationalMap(Poly(Q, [Q.from_rational(c) for c in (0, 10**170, 0, 1)]),
                        Poly(Q, [Q.one]))
        (p, _m), (q, _n), _inf = critical_data(f).points
        assert p == -q and p.real == 0 and abs(p.imag / 5.773502691896258e84 + 1) < 1e-12
        roots = numeric.certified_roots([-1e200, 0, 0, 0, 1])
        # each fourth root of 1e200 has its own computed root within 1e-14 relative
        want = 1e50 * np.array([1, 1j, -1, -1j])
        assert np.abs(roots[:, None] - want).min(axis=0).max() < 1e36
        row = np.array([[1, 0, 0, 0, -1e200]], dtype=complex)
        got = numeric._residuals(row, np.array([[2e50 + 0j]]))[0, 0]
    # |p(2e50)| = 15e200, against max|a_k| = 1e200 and |r|^4 = 16e200
    assert abs(got / 0.9375e-200 - 1) < 1e-14


def _squarefree_integer_rows(rng, d, count):
    """``count`` rows (descending) of degree d with integer coefficients in
    [-9, 9], nonzero leading and constant terms, and no repeated root."""
    Q = FieldContext.rationals()
    rows = []
    while len(rows) < count:
        c = rng.integers(-9, 10, size=d + 1)
        p = Poly(Q, [Q.from_rational(int(x)) for x in c])
        if c[0] and c[-1] and p.gcd(p.derivative()).degree == 0:
            rows.append(c[::-1])
    return np.array(rows, dtype=complex)


def test_seeded_squarefree_rows_are_all_kept():
    # a row stops once its corrections stop shrinking, so rounding noise just
    # above ABERTH_TOL no longer rejects a row whose roots are found; and
    # from seeds far off, a row stops only once its corrections are small
    rng = rng_for("squarefree-seeds")
    for d in range(3, 9):
        desc = _squarefree_integer_rows(rng, d, 300)
        want = numeric._companion_roots(desc)
        for offset in (1e-6, 0.1):
            noise = rng.normal(size=want.shape) + 1j * rng.normal(size=want.shape)
            roots, ok = numeric._aberth(desc, want + offset * (1 + np.abs(want)) * noise)
            assert ok.all(), (d, offset, (~ok).sum())
            # the same root set: each root's nearest companion root is its own
            dist = np.abs(roots[:, :, None] - want[:, None, :])
            assert (np.sort(dist.argmin(axis=2), axis=1) == np.arange(d)).all()


def test_rationalize_into_field_refuses_degree_three_and_up():
    # one complex value gives two real equations, too few for three coordinates
    K = field_configure([-2, 0, 0, 1])
    t = K.gen()
    assert rationalize_into_field(K, K.embed(K.one + t)) is None
    W = field_configure([1, 1, 1])
    w = W.gen()
    assert rationalize_into_field(W, W.embed(W.one + w)) == W.one + w


def _seeded_stack(rng, d, count):
    """(desc, seed): ``count`` squarefree integer rows of degree d, each seeded
    twice, 1e-6 and 0.1 (1 + |z|) off its companion roots, then one row
    with a double root at 2, seeded 1e-6 off."""
    desc = _squarefree_integer_rows(rng, d, count)
    want = numeric._companion_roots(desc)
    seeds = [want + offset * (1 + np.abs(want)) * complex_normal(rng, *want.shape)
             for offset in (1e-6, 0.1)]
    double = np.polymul([1, -4, 4], desc[0, :d - 1])
    roots = np.concatenate([[2, 2], np.roots(desc[0, :d - 1])]) + 1e-6 * complex_normal(rng, d)
    return (np.concatenate([desc, desc, [double]]),
            np.concatenate(seeds + [roots[None, :]]))


def test_aberth_rows_do_not_depend_on_their_stack():
    # numpy's sum or prod over an axis of a (n, n, L) array changes its
    # order with L; the kernel's fixed-order accumulation must not.  Rows
    # seeded 1e-6 and 0.1 off stop after different numbers of steps
    rng = rng_for("aberth-stack")
    for d in (3, 4, 5, 6, 7, 8, 20):
        desc, seed = _seeded_stack(rng, d, 12)
        roots, ok = numeric._aberth(desc, seed)
        assert not ok[-1]
        if d <= 8:
            assert ok[:-1].all(), (d, (~ok).sum())
        radius = numeric._disc_radii(desc.T.copy(), roots.T.copy())
        for size in (1, 2, 3):
            for i in range(0, len(desc), size):
                part, part_ok = numeric._aberth(desc[i:i + size], seed[i:i + size])
                assert part.tobytes() == roots[i:i + size].tobytes(), (d, size, i)
                assert (part_ok == ok[i:i + size]).all(), (d, size, i)
                part = numeric._disc_radii(desc[i:i + size].T.copy(), roots[i:i + size].T.copy())
                assert part.tobytes() == radius[:, i:i + size].tobytes(), (d, size, i)


def test_residuals_equal_polyval_row_by_row():
    rng = rng_for("residual-rows")
    for d in (3, 4, 5, 6, 7, 8, 20):
        coeffs = complex_normal(rng, 9, d + 1)
        roots = complex_normal(rng, 9, d) * 10.0 ** rng.integers(-3, 4, size=(9, d))
        roots[0] = numeric._companion_roots(coeffs[:1, :])[0]
        got = numeric._residuals(coeffs, roots)
        for row, rs, res in zip(coeffs, roots, got):
            for r, value in zip(rs, res):
                # one-element arrays, so each step is the elementwise loop
                w = np.array([r])
                if abs(r) > 1:
                    p = np.polyval(row[::-1], 1.0 / w)
                else:
                    p = np.polyval(row, w)
                assert (np.abs(p) / np.abs(row).max())[0] == value, (d, r)
        certified = numeric._certified_rows(coeffs, roots)
        assert certified[0] and (certified == (got < numeric.RESIDUAL_TOL).all(axis=1)).all()
