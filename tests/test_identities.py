import time
from fractions import Fraction
from itertools import islice
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mme.base import ConsistencyError
from mme.catalog import entry, omega_field
from mme.fields import FieldContext, field_configure
import mme.identities
from mme.identities import (
    MOMENT_BUDGET,
    SCREEN_PRIMES,
    _composites_equal,
    _least_relation,
    _powers_equal,
    _screen_separates,
    check_counterexample_triple,
    check_main1_relations,
    invariant_measure_identity,
    mobius_factor_exists,
    moment_test,
    polynomial_moments,
    same_measure_identity,
    shared_iterate_search,
    sigma_f_quadratic,
)
from mme.measure import backward_orbit_sample
from mme.parser import parse_map
from mme.polys import Poly
from mme.ratmaps import (DEFAULT_DEGREE_BUDGET, ITERATE_HEIGHT_BUDGET, MapError, RationalMap,
                         SizeBudgetError)
from conftest import random_rational_map

Q = FieldContext.rationals()
moebius = RationalMap.moebius


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


def verdicts(report):
    return {name: verdict for name, verdict, _w in report.claims}


def test_mobius_factor_between_square_and_inverse_square():
    m = mobius_factor_exists(rmap([0, 0, 1]), rmap([1], [0, 0, 1]))
    # the factor is z -> 1/z
    assert m == moebius(Q.zero, Q.one, Q.one, Q.zero)


def test_mobius_factor_shift_is_found_exactly():
    # z^2 = sigma(z^2 + 1) with sigma(z) = z - 1
    m = mobius_factor_exists(rmap([0, 0, 1]), rmap([1, 0, 1]))
    assert m.degree == 1
    assert rmap([0, 0, 1]) == m.compose(rmap([1, 0, 1]))


def test_mobius_factor_none_between_unrelated_maps():
    # fibers of z^2+z are {z, -1-z}; no Moebius aligns them with fibers
    # of z^2, whose points differ by sign
    assert mobius_factor_exists(rmap([0, 0, 1]), rmap([0, 1, 1])) is None


def test_counterexample_triple_for_equal_maps_fails_sigma_claim():
    f = rmap([0, -3, 0, 1])
    rep = check_counterexample_triple(f, f, f)
    v = verdicts(rep)
    assert v["T∘R = T∘S"] == "PASS"
    assert v["no Moebius factor R = σ∘S"] == "FAIL"
    assert not rep.passed()


def test_counterexample_triple_zieve():
    e = entry("zieve-family", {"n": 2, "m": 1})
    rep = e.run()
    assert rep.passed()


def test_main1_relations_for_identical_maps():
    f = rmap([1, 0, 2, 1], [2, 1])
    rep = check_main1_relations(f, f)
    assert rep.passed()


def test_main1_relations_degree_mismatch_fails():
    rep = check_main1_relations(rmap([0, 0, 1]), rmap([0, 0, 0, 1]))
    assert not rep.passed()


def test_main1_relations_compose_only_past_the_screen(monkeypatch):
    built = []
    composite = mme.identities._composite
    monkeypatch.setattr(mme.identities, "_composite",
                        lambda maps, names: built.append(len(maps)) or composite(maps, names))
    assert verdicts(check_main1_relations(rmap([0, 0, 1]), rmap([1, 0, 1]))) == {
        "F∘F = F∘G": "FAIL", "G∘F = G∘G": "FAIL"}
    assert built == []
    # z^2 and -z^2: F∘F = F∘G = z^4 and G∘F = G∘G = -z^4
    assert check_main1_relations(rmap([0, 0, 1]), rmap([0, 0, -1])).passed()
    assert built == [2, 2, 2, 2]


def test_shared_iterate_of_power_maps_is_none():
    assert shared_iterate_search(rmap([0, 0, 1]), rmap([0, 0, 0, 1]), budget=10**6) is None


def test_shared_iterate_finds_cube():
    f = rmap([-1, 0, 1])
    assert shared_iterate_search(f, f.iterate(3), budget=2**9) == (3, 1)


def test_shared_iterate_rejects_moebius_maps():
    # iterates of a Moebius map keep degree 1, so no budget ends the search
    with pytest.raises(MapError, match="degree >= 2"):
        shared_iterate_search(rmap([1], [0, 1]), rmap([0, 0, 1]), budget=64)


def test_sigma_f_for_z_plus_inverse():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z, fibers swapped by z -> 1/z
    s = sigma_f_quadratic(f)
    assert s == moebius(Q.zero, Q.one, Q.one, Q.zero)
    assert s.compose(s) == rmap([0, 1])


def test_sigma_f_rejects_wrong_degree():
    with pytest.raises(Exception):
        sigma_f_quadratic(rmap([0, -3, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_f_is_involution_on_random_quadratics(seed):
    rng = np.random.default_rng(seed)
    f = random_rational_map(2, rng)
    try:
        s = sigma_f_quadratic(f)
    except Exception:
        return  # degenerate draw (sigma undefined), allowed to refuse
    assert s.compose(s) == rmap([0, 1])
    assert f.compose(s) == f


def test_chebyshev_flower_certificates_over_omega():
    e = entry("chebyshev-flower", {"a": "1"})
    assert e.run().passed()


def rand_element(ctx, rng):
    return ctx.element([int(rng.integers(-3, 4)) for _ in range(ctx.degree)])


def rand_moebius(ctx, rng):
    while True:
        entries = [rand_element(ctx, rng) for _ in range(4)]
        if not (entries[0] * entries[3] - entries[1] * entries[2]).is_zero():
            return moebius(*entries)


def bind_gen(ctx, text):
    return parse_map(text, ctx, {"t": ctx.gen()})


def test_mobius_factor_over_cubic_field():
    # Q(t), t^3 = 2: sigma = t/z is not defined over Q, R = t / S
    K = field_configure([-2, 0, 0, 1])
    S = bind_gen(K, "(z^2+2)/(z-1)")
    R = bind_gen(K, "t*(z-1)/(z^2+2)")
    m = mobius_factor_exists(R, S)
    assert m == moebius(K.zero, K.gen(), K.one, K.zero)
    assert m.compose(S) == R


def test_mobius_factor_over_quartic_field():
    # Q(t), t^4 + 1 = 0: R = t^2 S
    K = field_configure([1, 0, 0, 0, 1])
    S = bind_gen(K, "z^2+z")
    R = bind_gen(K, "t^2*(z^2+z)")
    m = mobius_factor_exists(R, S)
    assert m.degree == 1
    assert m.compose(S) == R


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1,), (1, 1, 1)]), st.integers(1, 4), st.integers(0, 10**6))
def test_mobius_factor_found_for_every_twist(minpoly, degree, seed):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)
    while True:
        try:
            S = RationalMap(
                Poly(ctx, [rand_element(ctx, rng) for _ in range(degree + 1)]),
                Poly(ctx, [rand_element(ctx, rng) for _ in range(degree + 1)]),
            )
            break
        except MapError:  # a constant draw
            pass
    sigma = rand_moebius(ctx, rng)
    R = sigma.compose(S)
    m = mobius_factor_exists(R, S)
    assert m == sigma
    assert m.compose(S) == R
    # the unrelated pair stays unrelated under any twist: fibers of z^2+z
    # are {z, -1-z}, fibers of sigma(z^2) are {z, -z}
    square = Poly(ctx, [0, 0, 1])
    twisted_square = sigma.compose(RationalMap.polynomial(square))
    assert mobius_factor_exists(twisted_square, RationalMap.polynomial(Poly(ctx, [0, 1, 1]))) is None


def rand_map(ctx, degree, rng):
    while True:
        try:
            f = RationalMap(Poly(ctx, [rand_element(ctx, rng) for _ in range(degree + 1)]),
                            Poly(ctx, [rand_element(ctx, rng) for _ in range(degree + 1)]))
        except MapError:  # a constant draw
            continue
        if f.degree >= 2:
            return f


def fof_equals_fog_by_composition(R, S, T):
    """Claim (iii) the long way: build fof and fog, of degree deg(f)^2."""
    f, g = R.compose(T), S.compose(T)
    return "PASS" if f.compose(f) == f.compose(g) else "FAIL"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1,), (1, 1, 1)]), st.booleans(), st.integers(0, 10**6))
def test_fof_claim_matches_the_composed_maps(minpoly, symmetric, seed):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)
    if symmetric:
        # R even, T odd, S = -R: ToS = -ToR, so (i) fails while RoToR = RoToS
        z = Poly.x(ctx)
        R = rand_moebius(ctx, rng).compose(RationalMap.polynomial(z * z))
        b = rand_moebius(ctx, rng)
        T = RationalMap(z * (z * z * b.num.coeff(1) + b.num.coeff(0)),
                        z * z * b.den.coeff(1) + b.den.coeff(0))
        S = RationalMap(-R.num, R.den)
        if T.degree < 2:
            return
    else:
        R, S, T = (rand_map(ctx, int(rng.integers(2, 4)), rng) for _ in range(3))
    got = verdicts(check_counterexample_triple(R, S, T))["f∘f = f∘g"]
    assert got == fof_equals_fog_by_composition(R, S, T)
    if symmetric:
        assert got == "PASS"


@pytest.mark.parametrize("name,params", [
    ("chebyshev-flower", {"a": "1"}),
    ("chebyshev-flower", {"a": "2-w"}),
    ("zieve-family", {"n": 1, "m": 2}),
    ("zieve-family", {"n": 2, "m": 1}),
    ("zieve-family", {"n": 2, "m": 2}),
    ("zieve-family", {"n": 1, "m": 3}),
])
def test_fof_claim_matches_the_composed_maps_on_the_catalog(name, params):
    e = entry(name, params)
    R, S, T = e.maps["R"], e.maps["S"], e.maps["T"]
    got = verdicts(e.run())["f∘f = f∘g"]
    assert got == fof_equals_fog_by_composition(R, S, T) == "PASS"


def test_fof_claim_without_toR_equal_toS():
    # R = z^2, S = -z^2, T = z^3: ToR = z^6 and ToS = -z^6 differ, while
    # fof = fog = z^36
    rep = verdicts(check_counterexample_triple(rmap([0, 0, 1]), rmap([0, 0, -1]),
                                               rmap([0, 0, 0, 1])))
    assert rep["T∘R = T∘S"] == "FAIL"
    assert rep["f∘f = f∘g"] == "PASS"


def apply_maps(maps, z):
    """The composite of ``maps`` (first to last) at z, exactly, through INF."""
    for f in maps:
        z = f.eval_exact(z)
    return z


def separated_at(fs, gs, points):
    """Whether the composites take unequal exact values at one of z = 0, 1, ...,
    points - 1."""
    ctx = fs[0].ctx
    return any(apply_maps(fs, ctx.from_rational(k)) != apply_maps(gs, ctx.from_rational(k))
               for k in range(points))


def composites_equal_at_2d_plus_2_points(fs, gs):
    """The rule ``_composites_equal`` replaced, kept as a reference: two maps
    of degree <= D that agree at 2D + 1 points of the line are equal."""
    degree = max(prod(f.degree for f in fs), prod(g.degree for g in gs))
    return not separated_at(fs, gs, 2 * degree + 2)


def screen_polynomial(ctx):
    """z(z - 1)...(z - len(SCREEN_PRIMES) + 1): every screened point goes to 0."""
    z = Poly.x(ctx)
    return RationalMap.polynomial(prod((z - ctx.from_rational(k)
                                        for k in range(len(SCREEN_PRIMES))),
                                       start=Poly.one(ctx)))


def twisted_at_zero(f, ctx, rng):
    """f o (z / (cz + 1)), c != 0: equal to f at 0, usually not elsewhere."""
    c = rand_element(ctx, rng)
    while c.is_zero():
        c = rand_element(ctx, rng)
    return f.compose(moebius(ctx.one, ctx.zero, c, ctx.one))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1,), (1, 1, 1)]), st.sampled_from(["random", "screened", "iterates"]),
       st.integers(0, 10**6))
def test_composites_equal_matches_the_pointwise_rule(minpoly, kind, seed):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)

    def draw():
        return rand_map(ctx, int(rng.integers(2, 4)), rng)

    if kind == "random":
        fs = [draw() for _ in range(int(rng.integers(1, 3)))]
        gs = [draw() for _ in range(int(rng.integers(1, 3)))]
    elif kind == "screened":
        # equal values at every screened point, so the composites decide
        f = draw()
        fs, gs = [screen_polynomial(ctx), f], [screen_polynomial(ctx), twisted_at_zero(f, ctx, rng)]
    else:
        f = draw()
        k, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        fs, gs = [f] * (k * m), [f.iterate(k)] * m
    want = composites_equal_at_2d_plus_2_points(fs, gs)
    assert _composites_equal(fs, gs) is want
    assert _composites_equal(gs, fs) is want
    if kind == "iterates":
        assert want


@pytest.mark.parametrize("minpoly", [(1,), (1, 1, 1)])
def test_composites_equal_composes_only_past_the_screen(minpoly, monkeypatch):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    built = []
    composite = mme.identities._composite
    monkeypatch.setattr(mme.identities, "_composite",
                        lambda maps, names: built.append(len(maps)) or composite(maps, names))
    z2, z2_z = (parse_map(text, ctx) for text in ("z^2", "z^2+z"))
    # z^2 and z^2 + z agree at 0 and differ at 1
    assert not _composites_equal([z2], [z2_z])
    assert built == []
    # behind z(z-1)...(z-7) they agree at every screened point, and differ
    P = screen_polynomial(ctx)
    assert not _composites_equal([P, z2], [P, z2_z])
    assert not composites_equal_at_2d_plus_2_points([P, z2], [P, z2_z])
    assert built == [2, 2]
    f = parse_map("(z^2-1)/(z+2)", ctx)
    assert _composites_equal([f] * 4, [f.iterate(2)] * 2)
    assert built == [2, 2, 4, 2]


EVERY_N = range(DEFAULT_DEGREE_BUDGET)


def test_least_relation_finds_each_identity():
    rng = np.random.default_rng(20241019)
    f = random_rational_map(2, rng)
    sigma = sigma_f_quadratic(f)
    budget = DEFAULT_DEGREE_BUDGET
    assert _least_relation(f, f, EVERY_N, budget) == (0, 1, 1)
    assert _least_relation(f, f.iterate(3), EVERY_N, budget) == (0, 1, 3)
    # the Rat_2 case g = sigma_f∘f^2: f∘g = f^3, and no iterate of f is g
    assert _least_relation(f, sigma.compose(f.iterate(2)), EVERY_N, budget) == (1, 1, 2)
    # degree 2 is no power of 4, so m = 2: (f^2)^1 = f^2
    assert _least_relation(f.iterate(2), f, EVERY_N, budget) == (0, 2, 1)
    assert _least_relation(f, random_rational_map(2, rng), EVERY_N, budget) is None
    assert _least_relation(f, random_rational_map(3, rng), EVERY_N, budget) is None
    # z^3 against z^(3^k) with n = 1: f∘g = f^(k+1) has degree 2187 <= 4096
    # for k = 6, and 6561, over the degree budget, for k = 7
    z3 = rmap([0, 0, 0, 1])
    assert _least_relation(z3, rmap([0] * 729 + [1]), range(1, 2), budget) == (1, 1, 6)
    assert _least_relation(z3, rmap([0] * 2187 + [1]), range(1, 2), budget) is None
    assert _least_relation(z3, rmap([0] * 2187 + [1]), EVERY_N, budget) == (0, 1, 7)
    flower = entry("chebyshev-flower", {"a": "1+w"}).maps
    assert _least_relation(flower["f"], flower["g"], EVERY_N, budget) == (1, 1, 1)
    # f + P, P vanishing at every screened point: f∘(f + P) = f∘f there, so
    # only the composites tell them apart
    P = screen_polynomial(Q)
    f8 = rmap([1, 0, 0, 0, 0, 0, 0, 0, 2])
    assert _least_relation(f8, RationalMap.polynomial(f8.num + P.num), range(1, 2), budget) is None
    assert _least_relation(f8, f8, range(1, 2), budget) == (1, 1, 1)


def over_qi(*texts):
    """The maps ``texts`` over Q(i), with i bound to the generator."""
    K = field_configure([1, 0, 1])
    return [parse_map(text, K, {"i": K.gen()}) for text in texts]


def test_same_measure_identity_routes():
    relation = "fⁿ∘gᵐ = f^(n+k)"
    f = rmap([-1, 0, 1])
    assert same_measure_identity(f, f.iterate(2)) == (relation, {"n": 0, "m": 1, "k": 2})
    assert same_measure_identity(f.iterate(2), f) == (relation, {"n": 0, "m": 2, "k": 1})
    # z^2 and 1/z^2 share z^4 as second iterate
    assert same_measure_identity(rmap([0, 0, 1]), rmap([1], [0, 0, 1])) == (
        relation, {"n": 0, "m": 2, "k": 2})
    # iz and -z permute the fibers of f^2 for these f, so f^2∘g = f^3
    for pair in (over_qi("z^2", "i*z^2"), over_qi("z^2+2/z^2", "i*(z^2+2/z^2)")):
        assert same_measure_identity(*pair) == (relation, {"n": 2, "m": 1, "k": 1})
    # the Rat_2 case g = sigma_f∘f: f∘g = f∘f
    h = random_rational_map(2, np.random.default_rng(7))
    g = sigma_f_quadratic(h).compose(h)
    assert same_measure_identity(h, g) == (relation, {"n": 1, "m": 1, "k": 1})
    # commuting maps with no relation of iterates: the Chebyshev and power pairs
    assert same_measure_identity(rmap([-2, 0, 1]), rmap([0, -3, 0, 1])) == ("f∘g = g∘f", None)
    assert same_measure_identity(rmap([0, 0, 1]), rmap([0, 0, 0, 1])) == ("f∘g = g∘f", None)
    # equal measures (Haar measure on the circle), and no relation up to the
    # degree budget; z^2 and z^2 + 1 have different measures
    assert same_measure_identity(*over_qi("z^2", "(3/5+4/5*i)*z^2")) is None
    assert same_measure_identity(rmap([0, 0, 1]), rmap([1, 0, 1])) is None
    # maps over different fields are not compared
    w = omega_field()
    assert same_measure_identity(f, RationalMap.polynomial(Poly(w, [-1, 0, 1]))) is None


def test_same_measure_identity_swaps_the_maps_within_the_degree_budget():
    # f = -h^7 against h = z^2 - 1, whose fibers -z swaps: h∘f = h^8, of
    # degree 256, while f∘h^7 = f^2 has degree 128^2, over the budget
    h = rmap([-1, 0, 1])
    f = rmap([0, -1]).compose(h.iterate(7))
    assert same_measure_identity(f, h) == ("gⁿ∘fᵐ = g^(n+k)", {"n": 1, "m": 1, "k": 7})
    assert same_measure_identity(h, f) == ("fⁿ∘gᵐ = f^(n+k)", {"n": 1, "m": 1, "k": 7})


def test_invariant_measure_identity_routes():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z
    one, zero = Q.one, Q.zero
    relation = "fⁿ∘gᵐ = f^(n+k)"
    assert invariant_measure_identity(f, f) == ("φ = f", None)
    # f∘σ = f: g = σ∘f∘σ^-1 has f∘g = f∘f
    assert invariant_measure_identity(f, sigma_f_quadratic(f)) == (
        relation, {"n": 1, "m": 1, "k": 1})
    # -z commutes with z + 1/z, so σ∘f∘σ^-1 = f
    minus = moebius(-one, zero, zero, one)
    assert invariant_measure_identity(f, minus) == (relation, {"n": 0, "m": 1, "k": 1})
    shift = moebius(one, Q.from_rational(3), zero, one)
    assert invariant_measure_identity(f, shift) is None
    assert invariant_measure_identity(f, rmap([-1, 0, 1])) is None
    # iz permutes the fibers of f^2 but not of f: f^2∘g = f^3
    K = field_configure([1, 0, 1])
    (f_i,) = over_qi("z^2+2/z^2")
    assert invariant_measure_identity(f_i, moebius(K.gen(), K.zero, K.zero, K.one)) == (
        relation, {"n": 2, "m": 1, "k": 1})
    # a sigma over another field is not compared
    w = omega_field()
    assert invariant_measure_identity(f, moebius(w.zero, w.one, w.one, w.zero)) is None


def test_shared_iterate_refuses_a_candidate_over_the_height_budget():
    # the 8th iterate of z^2 + 10^40 z is bounded by 33884 bits; composing
    # the 10th takes 18 s (2-vCPU Xeon VM)
    def composed_iterate(f, n):
        g = f
        for _ in range(n - 1):
            g = f.compose(g)
        return g

    f = rmap([0, 10**40, 1])
    assert f.iterate_height_bound(7) <= ITERATE_HEIGHT_BUDGET < f.iterate_height_bound(8)
    assert shared_iterate_search(f, composed_iterate(f, 7)) == (7, 1)
    g = composed_iterate(f, 8)
    for pair in ((f, g), (g, f)):
        with pytest.raises(SizeBudgetError, match="iterate budget"):
            shared_iterate_search(*pair)
    # a candidate the screen separates is not refused
    assert shared_iterate_search(f, composed_iterate(rmap([1, 10**40, 1]), 8)) is None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1,), (1, 1, 1), (-2, 0, 0, 1)]), st.sampled_from(["random", "shared"]),
       st.integers(0, 10**6))
def test_screen_modulo_a_prime_matches_exact_values(minpoly, kind, seed):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)
    f, g = (rand_map(ctx, 2, rng) for _ in range(2))
    if kind == "shared":
        # f and f∘(z / (cz + 1)) agree at 0 only
        g = twisted_at_zero(f, ctx, rng)
    for fs, gs in (([f], [g]), ([f, g], [g, f]), ([f] * 3, [g] * 3), ([f] * 2, [f.iterate(2)])):
        assert _screen_separates(fs, gs) is separated_at(fs, gs, len(SCREEN_PRIMES))


def test_screen_reduces_big_coefficients_modulo_the_prime():
    # z^2 and z^2 + P z, P the product of the screen primes, agree modulo
    # each prime at every point, and differ
    P = prod(SCREEN_PRIMES)
    f, g = rmap([0, 0, 1]), rmap([0, P, 1])
    assert not _screen_separates([f], [g])
    assert not _composites_equal([f], [g])
    # a field with every screen prime in a denominator of its minimal
    # polynomial is not screened
    ctx = field_configure([Fraction(1, P), 0, 1])
    z2, z2_1 = (parse_map(text, ctx) for text in ("z^2", "z^2+1"))
    assert not _screen_separates([z2], [z2_1])
    assert not _composites_equal([z2], [z2_1])


def test_screen_separates_maps_equal_modulo_one_prime():
    # z^2 + (2^61 - 1)/2^61 reduces to z^2 modulo 2^61 - 1, where 2^61 = 1;
    # the other points' primes tell the two apart, so no candidate of the
    # relation search is composed (composing them ran into the height budget)
    p = SCREEN_PRIMES[0]
    f, g = rmap([0, 0, 1]), rmap([Fraction(p, p + 1), 0, 1])
    assert _screen_separates([f], [g])
    t0 = time.perf_counter()
    assert same_measure_identity(f, g) is None
    assert time.perf_counter() - t0 < 1.0


def test_screen_cost_does_not_grow_with_the_height():
    # exact values of the 12th iterates of two 40-digit quadratics have about
    # 2^12 times their bits: screening to degree 4096 took 22 s on them
    f = rmap([3141592653589793238462643383279502884197, 2718281828459045235360287471352662497757,
              1414213562373095048801688724209698078569],
             [1732050807568877293527446341505872366942, 2236067977499789696409173668731276235440,
              1618033988749894848204586834365638117720])
    g = rmap(list(reversed(f.num.padded(2))), list(f.den.padded(2)))
    t0 = time.perf_counter()
    assert shared_iterate_search(f, g) is None
    assert time.perf_counter() - t0 < 1.0


def iterated(f, n):
    """f^n, composed one map at a time."""
    out = f
    for _ in range(n - 1):
        out = f.compose(out)
    return out


def relation_holds(f, g, route, witness):
    """Whether the relation ``same_measure_identity`` reported holds, by
    composing both sides."""
    if route == "f∘g = g∘f":
        return f.compose(g) == g.compose(f)
    if route == "gⁿ∘fᵐ = g^(n+k)":
        f, g = g, f
    n, m, k = witness["n"], witness["m"], witness["k"]
    lhs = iterated(g, m) if n == 0 else iterated(f, n).compose(iterated(g, m))
    return g.degree**m == f.degree**k and lhs == iterated(f, n + k)


def rand_odd_map(ctx, degree, rng):
    """A random map with f(-z) = -f(z): (a z^2 + b)/(c z) or
    (a z^3 + b z)/(c z^2 + d)."""
    while True:
        a, b, c, d = (rand_element(ctx, rng) for _ in range(4))
        num, den = ([b, 0, a], [0, c]) if degree == 2 else ([0, b, 0, a], [d, 0, c])
        try:
            f = RationalMap(Poly(ctx, num), Poly(ctx, den))
        except MapError:  # a zero or constant draw
            continue
        if f.degree == degree:
            return f


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1,), (1, 1, 1)]), st.sampled_from([2, 3]), st.booleans(),
       st.integers(1, 2), st.integers(0, 10**6))
def test_iterate_and_twist_pairs_get_an_exact_same(minpoly, degree, odd, n, seed):
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)
    f = (rand_odd_map if odd else rand_map)(ctx, degree, rng)
    sigmas = [moebius(-ctx.one, ctx.zero, ctx.zero, ctx.one)] if odd else []
    pairs = [f.iterate(n)]
    if degree == 2:
        try:
            sigma_f = sigma_f_quadratic(f)
        except ConsistencyError:  # a degenerate draw has no sigma_f
            sigma_f = None
        if sigma_f is not None:
            sigmas.append(sigma_f)
            pairs.append(sigma_f.compose(f.iterate(n)))
    for sigma in sigmas:
        (b, a), (d, c) = sigma.num.padded(1), sigma.den.padded(1)
        inverse = moebius(d, -b, -c, a)
        assert sigma.compose(inverse) == RationalMap.polynomial(Poly.x(ctx))
        g = sigma.compose(f).compose(inverse)
        assert invariant_measure_identity(f, sigma) == same_measure_identity(f, g)
        pairs.append(g)
    for g in pairs:
        exact = same_measure_identity(f, g)
        assert exact is not None, (f, g)
        assert relation_holds(f, g, *exact), (f, g, exact)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(1,), (1, 1, 1)]), st.booleans(), st.integers(0, 10**6))
def test_distinct_quadratic_polynomials_get_no_exact_route(minpoly, same_residues, seed):
    # z^2 + c and z^2 + c' with c != c' have different Julia sets
    ctx = Q if len(minpoly) == 1 else field_configure(list(minpoly))
    rng = np.random.default_rng(seed)
    c = rand_element(ctx, rng)
    if same_residues:
        # every screened value agrees modulo its prime, so each candidate is
        # decided by composing; a small budget keeps the composites small
        c2 = c + ctx.from_rational(prod(SCREEN_PRIMES))
    else:
        c2 = c
        while c2 == c:
            c2 = rand_element(ctx, rng)
    f, g = (RationalMap.polynomial(Poly(ctx, [x, 0, 1])) for x in (c, c2))
    if same_residues:
        for a, b in ((f, g), (g, f)):
            assert not _screen_separates([a], [b])
            assert _least_relation(a, b, EVERY_N, 16) is None
        assert not _composites_equal([g, f], [f, g])
    else:
        assert same_measure_identity(f, g) is None


# -- moments and capacity of polynomials ------------------------------------------------


def moments(f, n=MOMENT_BUDGET):
    return list(islice(polynomial_moments(f), n))


def test_moments_stop_at_the_budget():
    # past the budget the s_i of z^50 - 1 are not built, so no moment is given
    assert len(list(polynomial_moments(rmap([-1] + [0] * 49 + [1])))) == MOMENT_BUDGET


def random_polynomial(rng, ctx, degree):
    """A polynomial map of the given degree with random coefficients of up to
    two digits in every coordinate."""
    def coeff():
        return ctx.element([int(v) for v in rng.integers(-20, 21, size=ctx.degree)])
    lead = coeff()
    while lead.is_zero():
        lead = coeff()
    return RationalMap.polynomial(Poly(ctx, [coeff() for _ in range(degree)] + [lead]))


def test_chebyshev_moments_are_central_binomials():
    # mu of z^2 - 2 is the arcsine law on [-2, 2]: m_2j = C(2j, j), odd moments vanish
    want = [comb(k, k // 2) if k % 2 == 0 else 0 for k in range(1, MOMENT_BUDGET + 1)]
    assert moments(rmap([-2, 0, 1])) == want
    w = omega_field()
    assert moments(RationalMap.polynomial(Poly(w, [-2, 0, 1]))) == want


@pytest.mark.parametrize("d", [2, 3, 5, 41])
def test_power_map_moments_vanish(d):
    # mu of z^d is Haar measure on the unit circle: every m_k with k >= 1 is 0
    assert moments(rmap([0] * d + [1])) == [0] * MOMENT_BUDGET
    w = omega_field()
    assert moments(RationalMap.polynomial(Poly.x(w) ** d)) == [0] * MOMENT_BUDGET


@pytest.mark.parametrize("text", ["z^2-1", "z^2+3/7z-5", "z^3-z+1/2"])
def test_moments_match_the_means_over_a_sampled_cloud(text):
    f = parse_map(text, Q)
    cloud = backward_orbit_sample(f, 20000, depth=40, seed=1, stream="moments")
    assert not cloud.inf.any()
    for k, m in enumerate(moments(f, 4), 1):
        exact = complex(m)
        # sampled to about 3% at 20k points: agreement in the first two digits
        assert abs(np.mean(cloud.z**k) - exact) < 0.05 * max(1.0, abs(exact)), (k, exact)


def equal_measure_pairs():
    """Polynomial pairs whose measures are equal by a theorem."""
    K = field_configure([1, 0, 1])
    pairs = [(rmap([-2, 0, 1]), rmap([0, -3, 0, 1])),  # the arcsine law
             tuple(over_qi("z^2", "(3/5+4/5*i)*z^2")),  # Haar measure on the circle
             (parse_map("z^2", K), parse_map("-z^3", K))]
    rng = np.random.default_rng(20261019)
    w = omega_field()
    for f in [rmap([-1, 0, 1]), rmap([Fraction(1, 3), Fraction(-3, 7), 1]),
              rmap([Fraction(1, 2), -1, 0, 1]), random_polynomial(rng, w, 2)]:
        pairs += [(f.iterate(n), f.iterate(m)) for n, m in ((1, 2), (1, 3), (2, 3))]
    powers = [entry("power-map", {"d": d}).maps["f"] for d in range(2, 7)]
    pairs += [(f, g) for f in powers for g in powers]
    for name, params in (("chebyshev-flower", {"a": "1"}), ("chebyshev-flower", {"a": "1+w"}),
                         ("zieve-family", {"n": 2, "m": 1}), ("zieve-family", {"n": 1, "m": 2})):
        maps = entry(name, params).maps
        T = maps["T"]
        # f and g are no polynomials: outside the class, so never DIFFERENT
        pairs += [(maps["f"], maps["g"]), (T, T.iterate(2))]
    return pairs


def test_equal_measures_get_no_moment_witness():
    for f, g in equal_measure_pairs():
        assert moment_test(f, g) is None, (f, g)
        assert moment_test(g, f) is None, (f, g)


def test_capacity_tells_apart_what_no_moment_does():
    # mu of a z^2 is Haar measure on |z| = 1/|a|: every moment is 0, and the
    # capacity 1/|a| differs
    f, g = rmap([0, 0, 1]), rmap([0, 0, 2])
    assert moments(f) == moments(g) == [0] * MOMENT_BUDGET
    assert moment_test(f, g) == ("capacity", {"leading": ["1", "2"], "degrees": [2, 2]})
    # -2 z^2 has the capacity of 2 z^2; 4 z^3 (capacity 1/2) that of 2 z^2
    assert moment_test(rmap([0, 0, -2]), rmap([0, 0, 2])) is None
    assert moment_test(rmap([0, 0, 2]), rmap([0, 0, 0, 4])) is None
    assert moment_test(rmap([0, 0, 2]), rmap([0, 0, 0, 2])) == (
        "capacity", {"leading": ["2", "2"], "degrees": [2, 3]})
    # a leading coefficient off Q: no capacity test, and the moments all vanish
    assert moment_test(*over_qi("z^2", "(1+i)*z^2")) is None


@pytest.mark.parametrize("minpoly", [[0, 1], [1, 1, 1]])
def test_random_polynomial_pairs_get_a_witness(minpoly):
    ctx = field_configure(minpoly) if len(minpoly) > 2 else Q
    rng = np.random.default_rng(len(minpoly))
    for _ in range(30):
        f, g = (random_polynomial(rng, ctx, int(rng.integers(2, 5))) for _ in range(2))
        assert moment_test(f, g) is not None, (f, g)


def test_moment_test_decides_polynomials_over_one_field_only():
    f = rmap([-1, 0, 1])
    w = omega_field()
    assert moment_test(f, RationalMap.polynomial(Poly(w, [1, 0, 1]))) is None
    assert moment_test(f, rmap([1, 0, 1], [0, 1])) is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(0, 12), st.integers(1, 40), st.integers(0, 12))
def test_powers_equal_matches_the_powers(x, p, y, q):
    assert _powers_equal(x, p, y, q) == (x**p == y**q)
    # powers of one base, which the search above seldom draws
    assert _powers_equal(x**q, p, x**p, q)
