from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mme.base import INF, ConsistencyError, is_inf
from mme.fields import FieldContext, field_configure
from mme.cli import main as cli_main
from mme.numeric import chordal, point_arrays
from mme.polys import Poly, integer_height
from mme.ratmaps import (
    DEFAULT_DEGREE_BUDGET,
    ITERATE_HEIGHT_BUDGET,
    MapError,
    RationalMap,
    SizeBudgetError,
    critical_data,
)
from conftest import random_rational_map

Q = FieldContext.rationals()


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


def _chordal(a, b):
    """The chordal distance of the points a and b."""
    return chordal(*point_arrays([a]), *point_arrays([b]))[0, 0]


def test_common_factor_is_reduced():
    f = rmap([0, 1, 1], [0, 1])  # z(z+1)/z
    assert f.degree == 1
    assert f.num == Poly(Q, [1, 1])


def test_degree_zero_rejected():
    with pytest.raises(MapError):
        rmap([3], [1])


def test_compose_degree_multiplicative():
    f = rmap([1, 0, 1])  # z^2+1
    g = rmap([1, 0, 1], [0, 1])  # (z^2+1)/z
    assert f.compose(g).degree == 4
    assert g.compose(f).degree == 4


def test_iterate_matches_repeated_compose():
    f = rmap([-1, 0, 1])
    assert f.iterate(3) == f.compose(f).compose(f)


def test_iterate_budget_enforced():
    f = rmap([0, 0, 1])
    with pytest.raises(SizeBudgetError):
        f.iterate(40, budget=1000)


def test_eval_exact_and_numeric_agree():
    f = rmap([1, 2, 0, 1], [3, 1])
    z = Fraction(5, 7)
    exact = f.eval_exact(Q.from_rational(z))
    assert abs(complex(exact) - f.eval_numeric(complex(z))) < 1e-12


def test_eval_at_pole_and_infinity():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z
    assert is_inf(f.eval_numeric(0.0))
    assert is_inf(f.eval_numeric(INF))
    g = rmap([1], [0, 1])  # 1/z
    assert g.eval_numeric(INF) == 0


def test_preimages_residuals_certified():
    f = rmap([0, -3, 0, 1])  # z^3 - 3z
    pts = f.preimages(0.25 + 0.1j)
    assert len(pts) == 3
    for z in pts:
        assert _chordal(f.eval_numeric(z), 0.25 + 0.1j) < 1e-8


def test_preimages_of_multiple_root():
    f = rmap([81, -540, 1350, -1500, 625])  # (5z-3)^4
    pts = f.preimages(0.0)
    assert len(pts) == 4
    assert all(abs(z - 0.6) < 1e-3 for z in pts)


def test_critical_data_chebyshev():
    cd = critical_data(rmap([0, -3, 0, 1]))
    finite = [v for v, _points in cd.value_groups if not is_inf(v)]
    vset = sorted(round(complex(v).real) for v in finite)
    assert vset == [-2, 2]
    assert any(is_inf(v) for v, _points in cd.value_groups)


def test_critical_data_past_the_chordal_square_overflow(capsys):
    # the critical points of z^3 + 10^170 z are 1e170 apart, where the
    # multiplicity cross-check once squared |z| into overflow and counted
    # both raw roots for one point (RootFindingError)
    f = rmap([0, 10**170, 0, 1])
    (p, m), (q, n), (w, e) = critical_data(f).points
    assert p == -q and abs(p.imag / 5.773502691896258e84 + 1) < 1e-12 and p.real == 0
    assert (m, n, is_inf(w), e) == (1, 1, True, 2)
    # the critical values +-4e254 i are within VALUE_TOL of infinity, so
    # analyze-graph still stops, with exit code 3
    assert cli_main(["analyze-graph", "--map", "z^3+10^170*z"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_critical_data_power_map_local_degrees():
    cd = critical_data(rmap([0, 0, 0, 1]))  # z^3
    assert sorted(m + 1 for _p, m in cd.points) == [3, 3]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_composition_evaluates_consistently(d1, d2, seed):
    rng = np.random.default_rng(seed)
    f = random_rational_map(d1, rng)
    g = random_rational_map(d2, rng)
    h = f.compose(g)
    z = complex(rng.normal(), rng.normal())
    gz = g.eval_numeric(z)
    if is_inf(gz):
        return
    assert _chordal(h.eval_numeric(z), f.eval_numeric(gz)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_composition_degree_multiplicative_random(d1, d2, seed):
    rng = np.random.default_rng(seed)
    f = random_rational_map(d1, rng)
    g = random_rational_map(d2, rng)
    assert f.compose(g).degree == d1 * d2


# -- composition without a gcd ---------------------------------------------------------


def _homogeneous(p, u, v, d):
    """p(u/v) v^d as a polynomial, for polynomials u, v: the sum of the
    p_i u^i v^(d-i), each power one product from the power before it."""
    upow, vpow = [Poly.one(p.ctx)], [Poly.one(p.ctx)]
    for _ in range(d):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    out = Poly.zero(p.ctx)
    for i in range(d + 1):
        out = out + upow[i] * vpow[d - i] * p.coeff(i)
    return out


def _random_map_over(ctx, degree, rng):
    def element():
        return ctx.element([int(rng.integers(-3, 4)) for _ in range(ctx.degree)])

    while True:
        num = Poly(ctx, [element() for _ in range(degree + 1)])
        den = Poly(ctx, [element() for _ in range(degree + 1)])
        try:
            f = RationalMap(num, den)
        except MapError:
            continue
        if f.degree == degree:
            return f


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(0, 1), (1, 1, 1)]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10**6))
def test_compose_is_the_gcd_reduced_composite(minpoly, d1, d2, seed):
    # (0, 1) is Q itself; (1, 1, 1) is Q(w), w^2 + w + 1 = 0
    ctx = Q if len(minpoly) == 2 else field_configure(minpoly)
    rng = np.random.default_rng(seed)
    f, g = _random_map_over(ctx, d1, rng), _random_map_over(ctx, d2, rng)
    h = f.compose(g)
    num = _homogeneous(f.num, g.num, g.den, d1)
    den = _homogeneous(f.den, g.num, g.den, d1)
    assert h == RationalMap(num, den)
    assert h.num.gcd(h.den).degree == 0
    assert h.degree == d1 * d2


def test_compose_refuses_a_composite_of_the_wrong_degree():
    # z(z-1) / (z(z+1)) with its common factor kept, after 1/z: degree 1, not 2
    f = RationalMap._coprime(Poly(Q, [0, -1, 1]), Poly(Q, [0, 1, 1]))
    with pytest.raises(ConsistencyError):
        f.compose(rmap([1], [0, 1]))


# Q, Q(w) with w^2 + w + 1 = 0, and Q(cbrt 2)
EVAL_FIELDS = [Q, field_configure([1, 1, 1]), field_configure([-2, 0, 0, 1])]


def bits(z):
    """The bits of complex z, signs of zero included."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


def reference_eval_numeric(f, z):
    """RationalMap.eval_numeric computed from Polys: Horner on num and den,
    and in the chart 1/z on the exactly reversed Polys z^d p(1/z)."""
    import mpmath

    def horner(p, x):
        acc = 0j
        for c in reversed(p.numeric_coeffs()):
            acc = acc * x + c
        return acc

    d = f.degree
    num, den = f.num, f.den
    if is_inf(z) or abs(z) > 1.0:
        num, den = (Poly(f.ctx, list(reversed(p.padded(d)))) for p in (num, den))
        x = 0j if is_inf(z) else 1.0 / z
    else:
        x = z
    n, dv = horner(num, x), horner(den, x)
    if max(abs(n), abs(dv)) >= 1e-12:
        return INF if abs(dv) <= 1e-15 * abs(n) else n / dv
    with mpmath.workdps(60):
        if is_inf(z):
            x = mpmath.mpc(0)
        else:
            x, num, den = mpmath.mpc(z), f.num, f.den
        n, dv = (mpmath.polyval([mpmath.mpc(c) for c in reversed(p.numeric_coeffs())], x)
                 for p in (num, den))
        return INF if abs(dv) == 0 else complex(n / dv)


@pytest.mark.parametrize("ctx", EVAL_FIELDS, ids=["Q", "Q(w)", "Q(cbrt2)"])
def test_eval_numeric_equals_the_reversed_poly_reference(ctx, monkeypatch):
    import mpmath

    # a is 1/3 over Q, whose generator is 0
    a, e = ctx.gen() + Fraction(1, 3), ctx.from_rational(Fraction(1, 10**13))
    # (a z^2 + z - e) / (z^2 + 2z - 2e): both nearly vanish at z = 1.5e-13;
    # (e z^3 + z) / (z^2 + 1): both leading coefficients are below 1e-12
    cancelling = RationalMap(Poly(ctx, [-e, 1, a]), Poly(ctx, [-2 * e, 2, 1]))
    small_lead = RationalMap(Poly(ctx, [0, 1, 0, e]), Poly(ctx, [1, 0, 1]))
    maps = [RationalMap(Poly(ctx, [1, a, 0, 3]), Poly(ctx, [a, 0, 1])),  # a pole at INF
            RationalMap(Poly(ctx, [a, 2, 1]), Poly(ctx, [1, a, -1, 5])),  # a zero at INF
            RationalMap(Poly(ctx, [0, 0, a]), Poly(ctx, [1, -1])),
            cancelling, small_lead]
    points = [0j, 0.3 - 0.4j, -0.999 + 0.01j, 1.0 + 0j, 1.2 + 3j, -40.5 + 0.25j, 1e9 + 1j,
              INF, 1.5e-13 + 0j]
    polyval, calls = mpmath.polyval, []
    monkeypatch.setattr(mpmath, "polyval", lambda *args: calls.append(1) or polyval(*args))
    escalated = []
    for i, f in enumerate(maps):
        for z in points:
            before = len(calls)
            got = f.eval_numeric(z)
            if len(calls) > before:
                escalated.append((i, z))
            want = reference_eval_numeric(f, z)
            assert is_inf(got) == is_inf(want), (f, z)
            if not is_inf(got):
                assert bits(got) == bits(want), (f, z)
    assert (3, 1.5e-13 + 0j) in escalated and (4, INF) in escalated


# -- the divide-and-conquer kernel at its split points --------------------------------


def _runs_poly(ctx, degree, rng):
    """A Poly of exact degree ``degree`` whose nonzero coefficients are
    followed by runs of 0-4 zero coefficients."""
    def element():
        while True:
            e = ctx.element([Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                             for _ in range(ctx.degree)])
            if not e.is_zero():
                return e

    cs = []
    while len(cs) < degree:
        cs += [element()] + [ctx.zero] * int(rng.integers(0, 5))
    return Poly(ctx, cs[:degree] + [element()])


def _split_point_map(ctx, d, rng):
    """A map of degree d with runs of zero coefficients: for even d the
    numerator has degree d and the denominator degree d mod 4, for odd d the
    reverse.  A denominator of degree 0 makes it a polynomial."""
    while True:
        a, b = _runs_poly(ctx, d, rng), _runs_poly(ctx, d % 4, rng)
        try:
            f = RationalMap(a, b) if d % 2 == 0 else RationalMap(b, a)
        except MapError:
            continue
        if f.degree == d:
            return f


@pytest.mark.parametrize("ctx", EVAL_FIELDS, ids=["Q", "Q(w)", "Q(cbrt2)"])
def test_kernel_equals_the_homogeneous_sum_at_every_split_point(ctx):
    # outer degrees 1-40 hold every 2^k - 1, 2^k and 2^k + 1 up to 33
    rng = np.random.default_rng(ctx.degree)
    w = ctx.gen()
    inner = [RationalMap(Poly(ctx, [1, 0, w]), Poly(ctx, [-3, 1])),  # (w z^2 + 1)/(z - 3)
             RationalMap.polynomial(Poly(ctx, [w, Fraction(1, 2), 0, 1]))]  # v constant
    points = [INF, ctx.zero, ctx.element([Fraction(2, 3)] * ctx.degree)]
    for d in range(1, 41):
        f = _split_point_map(ctx, d, rng)
        for g in inner:
            num = _homogeneous(f.num, g.num, g.den, d)
            den = _homogeneous(f.den, g.num, g.den, d)
            assert f._homogeneous(g.num, g.den) == (num, den), (d, g)
            assert f.compose(g) == RationalMap._coprime(num, den), (d, g)
        one = Poly.one(ctx)
        for z in points:
            u, v = (one, Poly.zero(ctx)) if is_inf(z) else (Poly.constant(ctx, z), one)
            nz, dz = (_homogeneous(p, u, v, d).coeff(0) for p in (f.num, f.den))
            assert f.eval_exact(z) == (INF if dz.is_zero() else nz / dz), (d, z)


@st.composite
def composable_pairs(draw):
    """(f, g, points): g = (z - r) A / ((z - s) B), and the points INF, r, s
    (a zero and a pole of g unless a factor cancels) and a free element."""
    ctx = draw(st.sampled_from(EVAL_FIELDS))
    coord = st.one_of(st.just(0), st.integers(-9, 9), st.builds(
        Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20)))
    elt = st.lists(coord, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    poly = st.lists(elt, min_size=1, max_size=4).map(lambda cs: Poly(ctx, cs))
    r, s = draw(elt), draw(elt)
    try:
        f = RationalMap(draw(poly), draw(poly))
        g = RationalMap(draw(poly) * Poly(ctx, [-r, 1]), draw(poly) * Poly(ctx, [-s, 1]))
    except MapError:
        assume(False)
    return f, g, [INF, r, s, draw(elt)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(composable_pairs())
def test_composite_value_is_the_value_of_the_composite(case):
    f, g, points = case
    h = f.compose(g)
    for z in points:
        assert h.eval_exact(z) == f.eval_exact(g.eval_exact(z)), z


def test_compose_keeps_logarithmically_many_powers_of_the_inner_map_alive():
    import tracemalloc

    f, g = rmap([1] + [0] * 399 + [1]), rmap([1, 1])  # z^400 + 1 and z + 1
    tracemalloc.start()
    try:
        h = f.compose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.degree == 400
    # the kernel keeps u^(2^j) and v^(2^j) for 2^j <= 256, and the v^t for the
    # tails t of 401; tabling every power u^i at once peaks at about 4.8 MiB here
    assert peak < 2**20


def test_iterate_reaches_the_degree_budget():
    f = rmap([-1, 0, 1])
    h = f.iterate(12)
    assert h.degree == 4096 == DEFAULT_DEGREE_BUDGET
    for z in (Q.from_rational(Fraction(1, 2)), Q.from_rational(-2), INF):
        w = z
        for _ in range(12):
            w = f.eval_exact(w)
        assert h.eval_exact(z) == w


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6),
       st.sampled_from([5, 10**6, 10**20]))
def test_iterate_height_bound_holds_over_q(d, n, seed, bound):
    import random

    rng = random.Random(seed)
    num, den = ([rng.randint(-bound, bound) for _ in range(d + 1)] for _ in range(2))
    num[-1], den[0] = num[-1] or bound, den[0] or 1
    f = rmap(num, den)
    assume(f.degree >= 2)
    out = f.iterate(n)
    assert integer_height(out.num, out.den) <= f.iterate_height_bound(n) + 1e-9


def test_iterate_height_budget_is_checked_before_composing():
    f = rmap([0, 0, 2**5000 + 1], [1, 2**5000])  # height about 5000 bits
    assert f.iterate_height_bound(3) > ITERATE_HEIGHT_BUDGET
    with pytest.raises(SizeBudgetError, match="f\\^3 may have coefficients"):
        f.iterate(3)
    assert f.iterate(2).degree == 4
