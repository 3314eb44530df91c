import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mme.fields import (
    FieldContext,
    FieldError,
    MINPOLY_DIGIT_BUDGET,
    _factor_search,
    _is_irreducible_over_q,
    _newton_polygon_starts,
    field_configure,
    poly_divmod,
    to_fraction,
)
from conftest import polys_and_products, sympy_irreducible


def omega():
    return field_configure([1, 1, 1])


def test_rational_context_basics(Q):
    a = Q.from_rational(Fraction(2, 3))
    b = Q.from_rational(5)
    assert (a * b).as_fraction() == Fraction(10, 3)
    assert (a - a).is_zero()
    assert (b / b) == Q.one


def test_context_cache_returns_same_instance():
    assert field_configure([1, 1, 1]) is field_configure([1, 1, 1])
    assert FieldContext.rationals() is FieldContext.rationals()


def test_generator_satisfies_minpoly():
    ctx = omega()
    w = ctx.gen()
    assert (w * w + w + ctx.one).is_zero()
    assert w * w * w == ctx.one


def test_inverse_in_extension():
    ctx = omega()
    w = ctx.gen()
    x = w + ctx.from_rational(2)
    assert x * x.inverse() == ctx.one


def test_integer_strings_are_read_past_the_digit_limit():
    # Python's int() reads at most 4300 digits at once; serialize writes more
    for text in ("0", "-0", "+7", " 12 ", "3/4", "-10/4", "\t5/10\n", "1.5e3", "-.25", "2E-3"):
        assert to_fraction(text, max_digits=10) == to_fraction(text) == Fraction(text)
    ones = "1" * 5000
    assert to_fraction(ones, max_digits=5000) == (10**5000 - 1) // 9
    assert to_fraction(" -3/%s " % ones, max_digits=5000) == Fraction(-27, 10**5000 - 1)
    with pytest.raises(ZeroDivisionError):
        to_fraction("1/0", max_digits=1)
    # past max_digits, past Python's limit without it, and an exponent past
    # that limit, are refused at once
    t0 = time.perf_counter()
    for text in (ones, "-" + ones, "1/" + ones, "1e100000000", "1e-100000000"):
        with pytest.raises(ValueError, match="digits"):
            to_fraction(text, max_digits=4999)
        with pytest.raises(ValueError, match="digits"):
            to_fraction(text)
    assert time.perf_counter() - t0 < 1.0


def test_minimal_polynomial_coefficients_stay_within_the_digit_limit():
    # refused before the irreducibility test, whose time grows about as the
    # square of the digits: about 15 ms at the budget, 2 s at 2400 digits
    budget = MINPOLY_DIGIT_BUDGET
    for coeffs in ([10**budget, 0, 1], [Fraction(1, 10**budget), 0, 1]):
        t0 = time.perf_counter()
        with pytest.raises(FieldError, match="at most %d digits" % budget):
            FieldContext(coeffs)
        assert time.perf_counter() - t0 < 1.0
    assert FieldContext([10**budget - 1, 0, 1]).degree == 2
    # the slowest octics probed at the budget: z^8 + N z^6 + 1 and z^8 + N z^7 + 1
    for k in (6, 7):
        coeffs = [1] + [0] * 7 + [1]
        coeffs[k] = 10**budget - 1
        t0 = time.perf_counter()
        assert FieldContext(coeffs).degree == 8
        assert time.perf_counter() - t0 < 1.0


def test_reducible_minpoly_rejected():
    with pytest.raises(FieldError):
        field_configure([-1, 0, 1])  # t^2 - 1 = (t-1)(t+1)
    with pytest.raises(FieldError):
        field_configure([1, 1])  # degree-1 extensions are just Q


def test_cross_context_mixing_rejected():
    a = omega().gen()
    b = field_configure([2, 0, 1]).gen()
    with pytest.raises(FieldError):
        a + b


def test_embedding_matches_arithmetic():
    ctx = omega()
    w = ctx.gen()
    z = complex(w)
    assert abs(z * z + z + 1) < 1e-12


fracs = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def elements(ctx):
    deg = len(ctx.minpoly) - 1 if ctx.minpoly else 1
    return st.lists(fracs, min_size=deg, max_size=deg).map(ctx.element)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms_in_quadratic_extension(data):
    ctx = omega()
    x = data.draw(elements(ctx))
    y = data.draw(elements(ctx))
    z = data.draw(elements(ctx))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + ctx.zero == x
    assert x * ctx.one == x
    if not x.is_zero():
        assert x * x.inverse() == ctx.one


@settings(max_examples=50, deadline=None)
@given(fracs, fracs)
def test_rational_arithmetic_matches_fractions(a, b):
    Q = FieldContext.rationals()
    x, y = Q.from_rational(a), Q.from_rational(b)
    assert (x + y).as_fraction() == a + b
    assert (x * y).as_fraction() == a * b


# -- irreducibility of a minimal polynomial ----------------------------------------


SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # roots +-sqrt2 +-sqrt3 +-sqrt5


@pytest.mark.parametrize("coeffs,irreducible", [
    ([1, 1, 1], True),
    ([1, 0, 1], True),
    ([-2, 0, 0, 1], True),
    ([1, 0, 0, 0, 1], True),                 # t^4 + 1, reducible mod every prime
    ([1, 0, -10, 0, 1], True),               # minimal polynomial of sqrt2 + sqrt3
    ([4, 0, 0, 0, 1], False),                # (t^2 + 2t + 2)(t^2 - 2t + 2)
    ([1] + [0] * 7 + [1], True),             # t^8 + 1
    ([-1] + [0] * 7 + [1], False),           # t^8 - 1
    (SWINNERTON_DYER_8, True),
    ([1, 0, 2, 0, 1], False),                # (t^2 + 1)^2
    ([0, 0, 1], False),                      # t^2
    ([Fraction(-1, 2), 0, 1], True),         # t^2 - 1/2
    ([Fraction(-1, 4), 0, 1], False),        # (t - 1/2)(t + 1/2)
    ([-1, 0, 1], False),
    ([6, 0, -5, 0, 1], False),               # (t^2 - 2)(t^2 - 3)
    ([0, 1, 1], False),                      # t(t + 1): squarefree, a root at 0
])
def test_irreducibility_corpus(coeffs, irreducible):
    coeffs = [Fraction(c) for c in coeffs]
    assert sympy_irreducible(coeffs) == irreducible
    assert _is_irreducible_over_q(coeffs) == irreducible


def test_newton_polygon_starts_are_distinct():
    # for 128 t^4 + 16 t^2 + 1 the hull's two circles have radii 2^-2 and
    # 2^-1.5: rounded down to powers of two they would be one, and the
    # edges' angles (0 and pi, then pi and 2 pi, turned alike) would coincide
    for f in ([1, 0, 16, 0, 128], [1, 1, 1], SWINNERTON_DYER_8,
              [1, 0, 0, 0, 0, 0, 10**150 - 1, 0, 1], [2, -4 * 10**15, 2 * 10**30] + [0] * 5 + [1]):
        xs = _newton_polygon_starts(f, 53 + max(c.bit_length() for c in f))
        assert len(set(xs)) == len(xs) == len(f) - 1


@pytest.mark.parametrize("coeffs,irreducible,roots", [
    ([1, 0, 0, 0, 1], True, [cmath.exp(1j * math.pi * (2 * k + 1) / 4) for k in range(4)]),
    ([4, 0, 0, 0, 1], False, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
    ([6, 0, -5, 0, 1], False, [2**0.5, -2**0.5, 3**0.5, -3**0.5]),
])
def test_root_disks_trust_no_approximation(coeffs, irreducible, roots):
    # the verdict rests on the disks around whatever approximations come in
    # (Gaussian integers in units of 2^-e): bad ones leave it undecided
    # (None), never wrong
    for e in (1, 4, 9, 16, 30):
        near = [(round(r.real * 2**e), round(r.imag * 2**e)) for r in roots]
        step = max(2**(e - 8), 1)  # 2^-8, or one unit on a coarser grid
        (x0, y0), rest = near[0], near[2:]
        for xs in (
            near,
            [(x + step, y - step) for x, y in near],  # every root moved
            [(x + (-1)**k * step, y + k * step) for k, (x, y) in enumerate(near)],
            [(x0, y0), (x0 + step, y0)] + rest,  # two starts on one root
            [(x0 + k * step, y0 - k * step) for k in range(4)],  # all on one root
            [(x0, y0), (0, 0)] + rest,  # a start far from the root it replaces
        ):
            assert _factor_search(coeffs, xs, e) in (None, irreducible)
        if e >= 9:
            # from e = 9 on, every radius around +-sqrt2 and +-sqrt3 is below
            # one unit and rounded up to it: rounded down to 0, the disks
            # would miss the roots and exclude both true factors
            assert _factor_search(coeffs, near, e) == irreducible


def test_overlapping_root_disks_decide_nothing():
    # z^4 - 2 (10z - 1)^2 is irreducible (Eisenstein at 2), and two of its
    # roots lie 0.0014 apart near 1/10.  Their approximations moved a
    # quarter of that gap toward each other have small disks that exclude
    # every factor, but overlap: neither is known to hold one root, so
    # they decide nothing
    f = [-2, 40, -200, 0, 1]
    s, t, u = 2**0.5, (50 - 2**0.5)**0.5, (50 + 2**0.5)**0.5
    roots = [-5 * s - u, u - 5 * s, 5 * s - t, 5 * s + t]
    for e in (12, 16, 20):
        near = [(round(r * 2**e), 0) for r in roots]
        assert _factor_search(f, near, e) is True
        d = (near[2][0] - near[1][0]) // 4
        moved = [near[0], (near[1][0] + d, 0), (near[2][0] - d, 0), near[3]]
        assert _factor_search(f, moved, e) is None


def test_reducible_minimal_polynomials_are_rejected_up_front():
    for coeffs in ([4, 0, 0, 0, 1], [-1] + [0] * 7 + [1], [1, 0, 2, 0, 1], [0, 0, 1]):
        with pytest.raises(FieldError, match="reducible"):
            field_configure(coeffs)
    assert field_configure(SWINNERTON_DYER_8).degree == 8
    assert field_configure(["-1/2", 0, 1]).degree == 2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys_and_products(2, 8))
def test_irreducibility_agrees_with_sympy(coeffs):
    assert _is_irreducible_over_q(coeffs) == sympy_irreducible(coeffs)


# -- long division ------------------------------------------------------------------


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _times_plus(q, b, r):
    """q * b + r by the schoolbook product, ascending."""
    zero = b[-1] - b[-1]
    out = [zero] * max(len(q) + len(b) - 1, len(r))
    for i, c in enumerate(r):
        out[i] = out[i] + c
    for i, qi in enumerate(q):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + qi * bj
    return out


CBRT2 = field_configure([-2, 0, 0, 1])

# half the coefficients are zero, so divisors often have zero lower entries
sparse_fracs = st.one_of(st.just(Fraction(0)), fracs)


@st.composite
def divisions(draw):
    """(a, b) over Q as Fractions, or over Q(w) or Q(cbrt2) as elements; b has
    a nonzero top entry, rarely 1."""
    ctx = draw(st.sampled_from([None, omega(), CBRT2]))
    if ctx is None:
        coeff = sparse_fracs
    else:
        coeff = st.lists(sparse_fracs, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    b = draw(st.lists(coeff, max_size=5)) + [draw(coeff.filter(bool))]
    return draw(st.lists(coeff, max_size=10)), b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(divisions())
@example(([Fraction(c) for c in (5, 0, 1, 7, 2)], [Fraction(0), Fraction(0), Fraction(3)]))
@example(([Fraction(c) for c in (1, 2, 3, 4, 5, 6, 7)],
          [Fraction(1), Fraction(0), Fraction(0), Fraction(-2, 3)]))
@example(([CBRT2.element([k, -k, 2]) for k in range(8)],  # by (t + 1) z^3 + 1, t = cbrt 2
          [CBRT2.one, CBRT2.zero, CBRT2.zero, CBRT2.element([1, 1])]))
def test_long_division_returns_quotient_and_remainder(ab):
    a, b = ab
    q, r = poly_divmod(a, b)
    assert len(q) == max(len(a) - len(b) + 1, 0)
    assert all(type(c) is type(b[-1]) for c in q + r)
    assert len(r) < len(b) and (not r or r[-1])
    assert _trimmed(_times_plus(q, b, r)) == _trimmed(a)
