from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mme.base import INF, is_inf
from mme.fields import FieldContext
from mme.measure import MeasureCloud, backward_orbit_sample
from mme.numeric import named_rng, point_arrays
from mme.polys import Poly
from mme.ratmaps import RationalMap


@pytest.fixture
def Q():
    return FieldContext.rationals()


def sphere_lift(z):
    """Stereographic lift of a point, or of an array of finite points, to
    the unit sphere in R^3 (infinity -> north pole): shape (3,) or (3, N)."""
    if is_inf(z):
        return np.array([0.0, 0.0, 1.0])
    r2 = z.real * z.real + z.imag * z.imag
    s = 1.0 / (1.0 + r2)
    return np.array([2.0 * z.real * s, 2.0 * z.imag * s, (r2 - 1.0) * s])


def sphere_lifts(cloud):
    """The (N, 3) lifts of a cloud's points."""
    lifts = sphere_lift(cloud.z).T.copy()
    lifts[cloud.inf] = sphere_lift(INF)
    return lifts


# The equidistribution oracle: the energy distance of two backward-orbit
# clouds on the sphere, against a baseline of same-map clouds.  Clouds that
# agree give a ratio below SAME_FACTOR, clouds of different measures one
# above DIFFERENT_FACTOR; both factors are calibration constants, and a
# ratio proves nothing.
SAME_FACTOR = 3.0
DIFFERENT_FACTOR = 10.0
ALL_PAIRS_CAP = 2000
SUBSAMPLE_PAIRS = 10**6


def energy_distance(A, B, seed=0):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| of the clouds A and B on the sphere:
    all pairs up to ALL_PAIRS_CAP points, else estimated on SUBSAMPLE_PAIRS
    shared index draws, which cancels most of the per-pair sampling noise
    when A and B are close."""
    def mean_pair_distance(P, Q):
        return float(cdist(P, Q).mean())

    pa, pb = sphere_lifts(A), sphere_lifts(B)
    na, nb = len(pa), len(pb)
    if max(na, nb) <= ALL_PAIRS_CAP:
        return 2.0 * mean_pair_distance(pa, pb) - mean_pair_distance(pa, pa) - mean_pair_distance(pb, pb)
    rng = named_rng(seed, "energy")
    total = 0.0
    block = 10**5
    done = 0
    while done < SUBSAMPLE_PAIRS:
        m = min(block, SUBSAMPLE_PAIRS - done)
        ia = rng.integers(0, na, size=m)
        ja = rng.integers(0, na, size=m)
        ib = rng.integers(0, nb, size=m)
        jb = rng.integers(0, nb, size=m)
        xa, ya, xb, yb = pa[ia], pa[ja], pb[ib], pb[jb]
        d_ab = np.sqrt(((xa - yb) ** 2).sum(-1))
        d_ba = np.sqrt(((ya - xb) ** 2).sum(-1))
        d_aa = np.sqrt(((xa - ya) ** 2).sum(-1))
        d_bb = np.sqrt(((xb - yb) ** 2).sum(-1))
        total += float((d_ab + d_ba - d_aa - d_bb).sum())
        done += m
    return total / SUBSAMPLE_PAIRS


def sampled_ratio(f, g, count=4000, depth=40, seed=0):
    """The energy distance from a cloud of f to a cloud of g, over the
    distance from it to a second cloud of f."""
    cf1, cf2, cg = (backward_orbit_sample(h, count, depth=depth, seed=seed, stream=stream)
                    for h, stream in ((f, "f-first"), (f, "f-second"), (g, "g")))
    baseline = max(abs(energy_distance(cf1, cf2, seed=seed)), 1e-12)
    return energy_distance(cf1, cg, seed=seed) / baseline


def pushed_ratio(f, phi, count=2000, depth=30, seed=0):
    """The energy distance from a cloud of f pushed forward by phi to an
    independent cloud of f, over the mean distance of three same-map cloud
    pairs (a single pair is too noisy to threshold against)."""
    def cloud(stream):
        return backward_orbit_sample(f, count, depth=depth, seed=seed, stream=stream)

    src = cloud("push-src")
    pushed = MeasureCloud(*point_arrays([phi.eval_numeric(INF if at_inf else z)
                                         for z, at_inf in zip(src.z.tolist(), src.inf.tolist())]))
    baseline = np.mean([abs(energy_distance(cloud("base-a-%d" % k), cloud("base-b-%d" % k),
                                            seed=seed))
                        for k in range(3)])
    return energy_distance(pushed, cloud("push-ref"), seed=seed) / max(float(baseline), 1e-12)


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
