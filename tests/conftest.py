from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from mme.fields import FieldContext
from mme.measure import SAME_FACTOR
from mme.numeric import is_inf
from mme.polys import Poly
from mme.ratmaps import RationalMap


@pytest.fixture
def Q():
    return FieldContext.rationals()


@pytest.fixture
def sampled_route(monkeypatch):
    """Turn off the exact routes of ``mme.measure``, so every pair is sampled."""
    monkeypatch.setattr("mme.measure.same_measure_identity", lambda f, g: None)
    monkeypatch.setattr("mme.measure.invariant_measure_identity", lambda f, phi: None)
    monkeypatch.setattr("mme.measure.moment_test", lambda f, g: None)


def assert_clouds_agree(rep, *context):
    """The sampled route's evidence of equal measures: a ratio below
    SAME_FACTOR, which it reports as INCONCLUSIVE with the reason, never as SAME."""
    out = rep.as_dict()
    assert (out["verdict"], out["route"]) == ("INCONCLUSIVE", "energy distance"), (context, out)
    assert out["ratio"] < SAME_FACTOR, (context, out)
    assert out["reason"] == "sampled clouds agree; no exact identity within the degree budget"


def sphere_lift(z):
    """Stereographic lift of one point to the unit sphere in R^3 (infinity
    -> north pole): the reference for numeric.sphere_lift_many."""
    if is_inf(z):
        return np.array([0.0, 0.0, 1.0])
    r2 = z.real * z.real + z.imag * z.imag
    s = 1.0 / (1.0 + r2)
    return np.array([2.0 * z.real * s, 2.0 * z.imag * s, (r2 - 1.0) * s])


def random_rational_map(degree, rng, ctx=None, coeff_bound=5):
    """A random exact map of the given degree with small integer coefficients."""
    ctx = ctx or FieldContext.rationals()
    while True:
        num = [int(rng.integers(-coeff_bound, coeff_bound + 1)) for _ in range(degree + 1)]
        den = [int(rng.integers(-coeff_bound, coeff_bound + 1)) for _ in range(degree + 1)]
        num[-1] = num[-1] or 1
        if all(c == 0 for c in den):
            continue
        try:
            f = RationalMap(Poly(ctx, num), Poly(ctx, den))
        except Exception:
            continue
        if f.degree == degree:
            return f


def random_polynomial_map(degree, rng, ctx=None, coeff_bound=5):
    ctx = ctx or FieldContext.rationals()
    num = [int(rng.integers(-coeff_bound, coeff_bound + 1)) for _ in range(degree + 1)]
    num[-1] = num[-1] or 1
    return RationalMap(Poly(ctx, num), Poly(ctx, [1]))


def rng_for(name, seed=0):
    from mme.numeric import named_rng

    return named_rng(seed, name)


def brute_force_is_periodic(z, d):
    """Oracle: iterate the exponent map a/b -> d a/b mod 1 and look for a loop.

    The orbit of a/b under multiplication by d mod 1 has at most b states,
    so z is periodic iff the start state recurs within b steps.
    """
    cur = z.a
    for _ in range(z.b + 1):
        cur = (cur * d) % z.b
        if cur == z.a:
            return True
    return False


def poly_product(a, b):
    """The product of two coefficient lists (ascending)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sympy_irreducible(coeffs):
    """The reference verdict on a polynomial over Q (Fraction coefficients,
    ascending): sympy's factorization."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i
               for i, c in enumerate(coeffs))
    return sympy.Poly(expr, t, domain="QQ").is_irreducible


HEIGHTS = st.sampled_from([10, 10**3, 10**10, 10**30])


@st.composite
def rational_polys(draw, degree, leading=st.just(1)):
    """Ascending Fraction coefficients: integer or p/q ones of a drawn height
    below ``leading``."""
    height = draw(HEIGHTS)
    coeff = st.integers(-height, height) | st.fractions(
        min_value=-height, max_value=height, max_denominator=height)
    low = draw(st.lists(coeff, min_size=degree, max_size=degree))
    return [Fraction(c) for c in low] + [Fraction(draw(leading))]


@st.composite
def polys_and_products(draw, min_degree, max_degree, leading=st.just(1)):
    """A random polynomial of degree min_degree..max_degree, or a product of
    two random factors of total degree <= max_degree."""
    if draw(st.booleans()):
        return draw(rational_polys(draw(st.integers(min_degree, max_degree)), leading))
    d1 = draw(st.integers(1, max_degree // 2))
    d2 = draw(st.integers(1, max_degree - d1))
    return poly_product(draw(rational_polys(d1, leading)), draw(rational_polys(d2, leading)))
