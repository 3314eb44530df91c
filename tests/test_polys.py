from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mme.base import INF, is_inf
from mme.fields import FieldContext, field_configure
from mme.polys import COPRIME_TEST_PRIME, BiPoly, Poly, _kronecker_product, graph_bipoly
from mme.ratmaps import MapError, RationalMap

Q = FieldContext.rationals()


def schoolbook_product(p, q):
    """The reference product over any field, one coefficient product at a time."""
    out = [p.ctx.zero] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(q.coeffs):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return Poly(p.ctx, out)


def horner(coeffs, z):
    """sum c_i z^i for ascending FieldElement coefficients, by Horner: the
    reference exact evaluation."""
    acc = z.ctx.zero
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def bivariate_horner(P, x, y):
    """P(x, y) for a BiPoly P, by Horner in y, then in x."""
    return horner([horner(row, y) for row in P.rows], x)


small_coeffs = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=6
)


def poly_from(coeffs):
    return Poly(Q, coeffs)


def test_basic_arithmetic():
    p = poly_from([1, 2, 1])  # (z+1)^2
    q = poly_from([1, 1])
    assert q * q == p
    assert p.divide_exact(q) == q
    assert p % q == Poly.zero(Q)
    assert p.derivative() == poly_from([2, 2])


def test_divide_exact_returns_none_on_remainder():
    assert poly_from([1, 0, 1]).divide_exact(poly_from([1, 1])) is None


def test_gcd_of_shared_factor():
    a = poly_from([1, 1]) * poly_from([-2, 1])
    b = poly_from([1, 1]) * poly_from([3, 1])
    assert a.gcd(b).monic() == poly_from([1, 1])


def euclid_gcd(p, q):
    """The reference gcd: Euclid's algorithm with monic remainders."""
    a, b = p, q
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


def yun_reference(p):
    """Yun's square-free decomposition with ``euclid_gcd``: [(g_i, i)]."""
    p = p.monic()
    out = []
    d = p.derivative()
    a = euclid_gcd(p, d)
    b, dd = p.divide_exact(a), d.divide_exact(a)
    dd, i = dd - b.derivative(), 1
    while b.degree > 0:
        a = euclid_gcd(b, dd)
        if a.degree > 0:
            out.append((a, i))
        b, dd = b.divide_exact(a), dd.divide_exact(a)
        dd, i = dd - b.derivative(), i + 1
    return out


@st.composite
def gcd_cases(draw):
    """(p, q, planted): two polynomials over Q or Q(w) that share the factor
    ``planted`` (1 when none is planted)."""
    ctx = draw(st.sampled_from([Q, field_configure([1, 1, 1])]))
    coeff = st.lists(st.integers(-9, 9), min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)

    def poly(lo, hi):
        cs = draw(st.lists(coeff, min_size=lo + 1, max_size=hi + 1))
        return Poly(ctx, cs[:-1] + [ctx.one if cs[-1].is_zero() else cs[-1]])

    p, q = poly(0, 5), poly(0, 5)
    planted = poly(1, 3) if draw(st.booleans()) else Poly.one(ctx)
    return p * planted, q * planted, planted


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(gcd_cases())
def test_gcd_equals_plain_euclid(case):
    p, q, planted = case
    g = p.gcd(q)
    assert g == euclid_gcd(p, q)
    assert g.divide_exact(planted.monic()) is not None
    assert q.gcd(p) == g
    assert p.gcd(Poly.zero(p.ctx)) == p.monic()
    assert p.gcd(Poly.one(p.ctx)) == Poly.one(p.ctx)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gcd_cases(), st.integers(1, 3))
def test_squarefree_decomposition_equals_yun_with_plain_euclid(case, k):
    p, q, planted = case
    # repeated factors of multiplicities 1, k and k + 1
    f = p * q ** k * planted ** (k + 1)
    assert f.squarefree_decomposition() == yun_reference(f)


def test_squarefree_wronskian_decomposes_without_a_division(monkeypatch):
    from mme import polys

    maps = [(poly_from([0, -3, 0, 1]), poly_from([1])),
            (poly_from([5, -1, 1, -4, 0, 3, 1]), poly_from([5, 1, 3, 5, -3, 0, 5])),
            (poly_from([3, -3, -1, -1, -3, -3, 4, 3, -3]),
             poly_from([-3, -2, 3, -5, 3, -4, -1, 2, 4]))]
    for num, den in maps:
        w = RationalMap(num, den).wronskian()
        want = yun_reference(w)
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(polys, "poly_divmod", lambda a, b: calls.append(1))
            got = w.squarefree_decomposition()
        assert calls == []
        assert got == want == [(w.monic(), 1)]


def test_squarefree_decomposition_recovers_multiplicities():
    p = poly_from([1, 1]) ** 3 * poly_from([-1, 1])
    by_mult = {m: q.monic() for q, m in p.squarefree_decomposition()}
    assert by_mult[3] == poly_from([1, 1])
    assert by_mult[1] == poly_from([-1, 1])


def test_compose_and_eval():
    p = RationalMap.polynomial(poly_from([0, 0, 1]))
    q = RationalMap.polynomial(poly_from([1, 1]))
    three = Q.from_rational(3)
    assert p.eval_exact(three) == 9
    assert p.compose(q).eval_exact(three) == 16 == horner(p.compose(q).num.coeffs, three)


def test_graph_bipoly_antisymmetric_and_diagonal_divisible():
    num, den = poly_from([0, -3, 0, 1]), poly_from([1])
    P = graph_bipoly(num, den)
    assert P.is_antisymmetric()
    assert P.bidegree == (3, 3)
    diag = BiPoly(Q, [[0, -1], [1, 0]])  # x - y
    quotient = P.divide_exact(diag)
    assert quotient is not None
    assert quotient * diag == P


def test_graph_bipoly_for_rational_map():
    P = graph_bipoly(poly_from([1, 0, 1]), poly_from([0, 1]))  # (z^2+1)/z
    assert P.bidegree == (2, 2)
    assert P.is_antisymmetric()
    assert bivariate_horner(P, Q.from_rational(2), Q.from_rational(Fraction(1, 2))).is_zero()


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_degree_of_product_is_additive(a, b):
    p, q = poly_from(a), poly_from(b)
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=60, deadline=None)
@given(small_coeffs, small_coeffs)
def test_exact_division_inverts_multiplication(a, b):
    p, q = poly_from(a), poly_from(b)
    if q.is_zero():
        return
    assert (p * q).divide_exact(q) == p


@settings(max_examples=40, deadline=None)
@given(small_coeffs, small_coeffs, small_coeffs)
def test_bipoly_division_inverts_multiplication(a, b, c):
    # build P and D as products of separated-variable slices
    P = BiPoly(Q, [list(a), list(b)])
    D = BiPoly(Q, [list(c)])
    if D.is_zero():
        return
    assert (P * D).divide_exact(D) == P


def schoolbook_biproduct(P, D):
    """The reference bivariate product, one coefficient product at a time."""
    (ax, ay), (bx, by) = P.bidegree, D.bidegree
    out = [[P.ctx.zero] * (ay + by + 1) for _ in range(ax + bx + 1)]
    for i, row in enumerate(P.rows):
        for j, a in enumerate(row):
            for k, drow in enumerate(D.rows):
                for l, b in enumerate(drow):
                    out[i + k][j + l] = out[i + k][j + l] + a * b
    return BiPoly(P.ctx, out)


@st.composite
def bipoly_pairs(draw):
    """P and D over Q or Q(w), each of x-degree and y-degree at least 1."""
    ctx = draw(st.sampled_from([Q, field_configure([1, 1, 1])]))
    coord = st.one_of(st.just(0), st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 99)))
    coeff = st.lists(coord, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)

    def bipoly():
        dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(coeff, min_size=dy + 1, max_size=dy + 1),
                             min_size=dx + 1, max_size=dx + 1))
        rows[dx][0] = rows[0][dy] = ctx.one  # keep the x-degree and the y-degree
        return BiPoly(ctx, rows)

    return bipoly(), bipoly()


@settings(max_examples=80, deadline=None)
@given(bipoly_pairs())
def test_packed_bipoly_product_and_division(pd):
    P, D = pd
    PD = P * D
    assert PD == schoolbook_biproduct(P, D)
    assert D * P == PD
    assert PD.divide_exact(D) == P
    assert PD.divide_exact(P) == D
    # packed with n = 3, y - x^2 y is z^3 - z^5 = (z - z^3) z^2, but x^2 (x - y)
    # has x-degree 3 = n, so x^2 is not the bivariate quotient
    y_minus_x2y, x_minus_y = BiPoly(Q, [[0, 1], [0, 0], [0, -1]]), BiPoly(Q, [[0, -1], [1, 0]])
    assert y_minus_x2y.divide_exact(x_minus_y) is None


def test_bipoly_antisymmetry_and_evaluation():
    P = graph_bipoly(poly_from([0, -3, 0, 1]), poly_from([1]))  # x^3 - 3x - (y^3 - 3y)
    assert P.is_antisymmetric()
    assert not BiPoly(Q, [[0, 1], [1, 0]]).is_antisymmetric()  # x + y
    assert not BiPoly(Q, [[0, 1]]).is_antisymmetric()  # y: not square
    assert BiPoly(Q, []).is_antisymmetric()
    x, y = Q.from_rational(2), Q.from_rational(Fraction(1, 3))
    assert bivariate_horner(P, x, y) == 2 - Fraction(1 - 27, 27)


# -- products on integers over Q ---------------------------------------------------------

# zero, small, and >= 300-bit numerators over denominators of up to 320 bits
q_coeff = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-2**400, 2**400), st.integers(1, 2**320)),
)
q_coeffs = st.lists(q_coeff, min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(q_coeffs, q_coeffs)
def test_q_product_equals_schoolbook_product(a, b):
    p, q = poly_from(a), poly_from(b)
    assert p * q == schoolbook_product(p, q)
    assert p * p == schoolbook_product(p, p)


def test_q_product_on_tall_signed_coefficients():
    import random

    rng = random.Random(6)
    for _ in range(200):
        a, b = ([rng.choice([0, 1, -1]) * rng.getrandbits(rng.choice([1, 64, 300]))
                 for _ in range(rng.randint(1, 30))] for _ in range(2))
        a[-1] = a[-1] or -(2**300)
        b[-1] = b[-1] or 2**300
        p, q = poly_from(a), poly_from(b)
        prod = p * q
        assert prod == schoolbook_product(p, q)
        assert prod.degree == len(a) + len(b) - 2
        # the integer convolution itself, slot by slot
        assert [c.as_fraction() for c in prod.coeffs] == [
            sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


# Q(alpha) for alpha of degree 2, 3, 4 and 8, one minimal polynomial with
# non-integer coefficients (its reduction table has a denominator)
EXTENSIONS = [
    field_configure([1, 1, 1]),
    field_configure([-2, 0, 0, 1]),
    field_configure([Fraction(1, 3), Fraction(-5, 7), 0, Fraction(2, 9), 1]),
    field_configure([1, 0, 0, 0, 1]),
    field_configure([-2, 0, 0, 0, 0, 0, 0, 0, 1]),
]
# up to 300-bit numerators, and whole coordinates or coefficients that are zero
ext_coord = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-2**300, 2**300), st.integers(1, 2**64)),
)


@st.composite
def ext_polys(draw):
    ctx = draw(st.sampled_from(EXTENSIONS))
    coeff = st.lists(ext_coord, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    poly = st.lists(coeff, min_size=0, max_size=8).map(lambda cs: Poly(ctx, cs))
    return draw(poly), draw(poly)


@settings(max_examples=120, deadline=None)
@given(ext_polys())
def test_extension_product_equals_schoolbook_product(pq):
    p, q = pq
    assert p * q == schoolbook_product(p, q)
    assert p * p == schoolbook_product(p, p)
    assert q * p == p * q


def test_extension_product_on_sparse_coordinates():
    # every coordinate but one zero: the product of two monomials is one reduced power
    for ctx in EXTENSIONS:
        m = ctx.degree
        for i in range(m):
            for k in range(m):
                a = Poly(ctx, [0, ctx.element([0] * i + [2**300])])
                b = Poly(ctx, [ctx.element([0] * k + [Fraction(-1, 3)]), 0, 0])
                expected = ctx.element([0] * i + [2**300]) * ctx.element([0] * k + [Fraction(-1, 3)])
                assert a * b == Poly(ctx, [0, expected])
                assert a * a == schoolbook_product(a, a)


# -- products with a constant: a scaling on the integer form ---------------------------


def kronecker_mul(p, q):
    """The product of two Polys by one Kronecker integer product followed by
    the alpha-reduction, whatever their degrees: the reference for a product
    with a constant."""
    ctx = p.ctx
    if p.is_zero() or q.is_zero():
        return Poly.zero(ctx)
    conv = _kronecker_product(p._ints, q._ints)
    m, s = ctx.degree, 2 * ctx.degree - 1
    rows, r = ctx._integer_reduction
    # slot i s + k holds z^i alpha^k; alpha^k for k >= m is rows[k - m] / r
    ints = [x * r for x in conv]
    for j, x in enumerate(conv):
        k = j % s
        if k >= m:
            ints[j] = 0
            for t, w in enumerate(rows[k - m]):
                ints[j - k + t] += w * x
    return Poly._from_ints(ctx, ints[:len(conv) - m + 1], p._den * q._den * r)


# Q, then Q(2^(1/m)) for m = 2..8, and a cubic whose integer reduction has r = 6
CONSTANT_FIELDS = [Q] + [field_configure([-2] + [0] * (m - 1) + [1]) for m in range(2, 9)] + [
    field_configure([Fraction(1, 3), Fraction(1, 2), 0, 1])]


@pytest.mark.parametrize("ctx", CONSTANT_FIELDS, ids=lambda ctx: "m%d-%s" % (
    ctx.degree, "-".join(str(c) for c in ctx.minpoly)))
def test_product_with_a_constant_equals_the_kronecker_route(ctx):
    import random

    rng = random.Random(ctx.degree)
    m = ctx.degree

    def element(nonzero):
        coords = [rng.choice([0, 0, 1, -7, 2**200 + 1, Fraction(-3, 10), Fraction(5, 2**70)])
                  for _ in range(m)]
        if nonzero and not any(coords):
            coords[rng.randrange(m)] = Fraction(2, 3)
        return ctx.element(coords)

    constants = [ctx.zero, ctx.one, ctx.from_rational(Fraction(-9, 4)), ctx.gen(),
                 ctx.element([Fraction(1, 6)] * m)] + [element(True) for _ in range(6)]
    polys = [Poly.zero(ctx), Poly.one(ctx)] + [
        Poly(ctx, [element(False) for _ in range(n)] + [element(True)]) for n in (0, 1, 3, 9)]
    for p in polys:
        for c in constants:
            want = kronecker_mul(p, Poly.constant(ctx, c))
            for got in (p * Poly.constant(ctx, c), Poly.constant(ctx, c) * p, p * c, c * p,
                        p.scale(c)):
                assert (got._ints, got._den) == (want._ints, want._den), (p, c)
    # the reference is the product itself on two non-constant factors
    a, b = polys[-1], polys[-2]
    assert kronecker_mul(a, b) == a * b == schoolbook_product(a, b)


def test_power_makes_popcount_plus_log_minus_one_products(monkeypatch):
    ctx = field_configure([1, 1, 1])
    p = Poly(ctx, [Fraction(1, 2), -1, ctx.gen()])
    want = [Poly.one(p.ctx)]
    for _ in range(70):
        want.append(want[-1] * p)
    products = []
    mul = Poly.__mul__

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    for n in range(71):
        products.clear()
        assert p**n == want[n]
        assert len(products) == (bin(n).count("1") + n.bit_length() - 2 if n else 0), n


# -- the integer form against a coefficientwise FieldElement reference -------------------

INTEGER_FORM_FIELDS = [
    Q,
    field_configure([1, 1, 1]),  # Q(w)
    field_configure([1, 0, 1]),  # Q(i)
    field_configure([-2, 0, 0, 1]),  # Q(cbrt 2)
    field_configure([1, 0, 0, 0, 1]),  # Q(t), t^4 + 1 = 0
]


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


@st.composite
def element_lists(draw):
    """(ctx, a, b, c): two coefficient lists and a scalar.  b often shares a's
    top coefficient, or its negation, so that a - b or a + b cancels there."""
    ctx = draw(st.sampled_from(INTEGER_FORM_FIELDS))
    coord = st.one_of(st.just(0), st.integers(-9, 9), st.builds(
        Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**40)))
    elt = st.lists(coord, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    a = draw(st.lists(elt, max_size=6))
    b = draw(st.lists(elt, max_size=6))
    top = draw(st.sampled_from(["free", "same", "opposite"]))
    if a and top != "free":
        b = (b + [ctx.zero] * len(a))[:len(a) - 1] + [a[-1] if top == "same" else -a[-1]]
    return ctx, a, b, draw(elt)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(element_lists())
def test_integer_form_arithmetic_matches_a_fieldelement_reference(case):
    ctx, a, b, c = case
    p, q = Poly(ctx, a), Poly(ctx, b)
    n = max(len(a), len(b))
    pa, pb = (list(cs) + [ctx.zero] * (n - len(cs)) for cs in (a, b))
    product = [ctx.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = product[i + j] + x * y
    lead = _trimmed(a)[-1].inverse() if _trimmed(a) else ctx.zero
    cases = [
        ("+", p + q, [x + y for x, y in zip(pa, pb)]),
        ("-", p - q, [x - y for x, y in zip(pa, pb)]),
        ("neg", -p, [-x for x in a]),
        ("*", p * q, product),
        ("scale", p.scale(c), [x * c for x in a]),
        ("monic", p.monic(), [x * lead for x in a]),
        ("p - p", p - p, []),
        ("p + -p", p + (-p), []),
    ]
    for op, got, ref in cases:
        ref = _trimmed(ref)
        # read the structure before the coefficients are built, then the coefficients
        assert got.degree == len(ref) - 1, op
        assert got.is_zero() == (not ref), op
        if ref:
            assert got.leading() == ref[-1], op
        assert got.coeffs == ref, op
        # an integer-built Poly and the FieldElement-built one are one key
        built = Poly(ctx, ref)
        assert got == built and hash(got) == hash(built), op
        assert {built: op}[got] == op and {got: op}[built] == op


# -- exact evaluation against a Horner reference ------------------------------------------


def reference_value(f, z):
    """f(z) by Horner on num and den: INF at a pole, and at INF the ratio of
    the coefficients of degree deg f."""
    if is_inf(z):
        num, den = f.num.coeff(f.degree), f.den.coeff(f.degree)
    else:
        num, den = horner(f.num.coeffs, z), horner(f.den.coeffs, z)
    return INF if den.is_zero() else num / den


@st.composite
def maps_with_points(draw):
    """(f, points) over Q or an extension: 100-bit numerators over 60-bit
    denominators, a denominator with a planted root, and INF, 0, that root
    and a free point to evaluate at."""
    ctx = draw(st.sampled_from(INTEGER_FORM_FIELDS))
    coord = st.one_of(st.just(0), st.integers(-9, 9), st.builds(
        Fraction, st.integers(-2**100, 2**100), st.integers(1, 2**60)))
    elt = st.lists(coord, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    num, den = (Poly(ctx, draw(st.lists(elt, min_size=1, max_size=5))) for _ in range(2))
    root = draw(elt)
    try:
        f = RationalMap(num, den * Poly(ctx, [-root, 1]))
    except MapError:
        assume(False)
    return f, [INF, ctx.zero, root, draw(elt)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(maps_with_points())
def test_eval_exact_equals_a_horner_reference(case):
    f, points = case
    for z in points:
        assert f.eval_exact(z) == reference_value(f, z), z


# -- coprimality modulo a prime ------------------------------------------------------------


def test_modular_coprimality_agrees_with_euclid():
    import random

    rng = random.Random(11)
    decided = 0
    for _ in range(300):
        a, b = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] for _ in range(2))
        a[-1], b[-1] = a[-1] or 1, b[-1] or -1
        if rng.random() < 0.4:  # a shared factor
            common = [rng.randint(-9, 9), rng.randint(1, 9)]
            a, b = ([c.as_fraction() for c in schoolbook_product(poly_from(x), poly_from(common)).coeffs]
                    for x in (a, b))
        p, q = poly_from(a), poly_from(b)
        g = euclid_gcd(p, q)
        # without the shared factor the Sylvester determinant is below 2^61
        # (Hadamard), so modulo the prime it vanishes only when it is 0
        assert p.provably_coprime(q) == (g.degree == 0)
        decided += g.degree == 0
        num, den = p.divide_exact(g), q.divide_exact(g)
        if max(num.degree, den.degree) >= 1:
            f, inv = RationalMap(p, q), den.leading().inverse()
            assert (f.num, f.den) == (num.scale(inv), den.scale(inv))
    assert decided > 50


def test_modular_coprimality_falls_back_to_euclid():
    # z - a and z - b with a = b modulo the prime share a root there only
    a = 5
    num, den = poly_from([-a, 1]), poly_from([-(a + COPRIME_TEST_PRIME), 1])
    assert not num.provably_coprime(den)
    f = RationalMap(num, den)
    assert f.degree == 1 and f.num == num and f.den == den
    # a leading coefficient the prime divides: no decision either way
    num = poly_from([1, 0, COPRIME_TEST_PRIME])
    assert not num.provably_coprime(poly_from([2, 1]))
    assert RationalMap(num, poly_from([2, 1])).degree == 2
    # other fields are left to Euclid
    W = field_configure([1, 1, 1])
    assert not Poly(W, [1, 1]).provably_coprime(Poly(W, [2, 1]))
