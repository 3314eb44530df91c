"""Exact certificates for composition identities between rational maps.

Every verdict of a certificate is decided by exact arithmetic over the
base field: an identity by comparing the coefficients of both sides in
lowest terms, once their values at a few integers, each taken modulo its
own large prime, have not already told them apart; the absence of a
Moebius factor R = sigma o S (a map of degree 1) by a span test on the
numerators and denominators (``mobius_factor_exists``).

Equal measures of maximal entropy are proved by one relation between
iterates, after Levin-Przytycki (Proc. AMS 1997): for n >= 0 and m, k >= 1
with (deg g)^m = (deg f)^k,
    f^n o g^m = f^(n+k)   proves   mu_f = mu_g.
Put d = deg f and G = g^m.  Pulling mu_f back along both sides gives
G^* (f^n)^* mu_f = (f^(n+k))^* mu_f, that is d^n G^* mu_f = d^(n+k) mu_f,
so G^* mu_f = deg(G) mu_f.  mu_G is the only atomless probability measure
with that property (Lyubich 1983; Freire-Lopes-Mane 1983), so
mu_f = mu_G = mu_g.  n = 0 is a shared iterate f^k = g^m; n = m = k = 1 is
the catalog's f o g = f o f.  Commuting maps share the measure too
(``same_measure_identity``).

Unequal measures of two polynomials are proved by exact invariants of
mu_f (``moment_test``): the capacity |a|^(-1/(d-1)) of the filled Julia
set, and the moments m_k = int z^k dmu_f.  mu_f is balanced,
int h dmu_f = (1/d) int sum_(f(y)=x) h(y) dmu_f(x) (Lyubich 1983), and for
h = z^k the inner sum is the power sum p_k(x) of the roots of f(y) - x, a
polynomial in x of degree floor(k/d) by Newton's identities, so
m_k = (1/d) sum_j [p_k]_j m_j over j <= k/d < k, with m_0 = 1: every moment
is an element of the base field.

``same_measure_test`` and ``sigma_invariance_check`` give the verdict on a
pair of measures: SAME by an identity, else DIFFERENT by an invariant,
else INCONCLUSIVE.  Like every certificate here they run on exact
arithmetic alone, and this module loads neither numpy nor the numeric
layers (``numeric``, ``graphcurve``, ``measure``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby
from math import prod

from .base import ConsistencyError
from .polys import Poly, residue_product, residues_mod
from .ratmaps import DEFAULT_DEGREE_BUDGET, MapError, RationalMap, maps_equal
from .serialize import element_to_json, moebius_entries_to_json


@dataclass
class CertificateReport:
    claims: list = field(default_factory=list)  # (name, verdict, witness)

    def add(self, name, verdict, witness=None):
        self.claims.append((name, verdict, witness))

    def passed(self):
        return all(v == "PASS" for _, v, _ in self.claims)

    def as_dict(self):
        return {
            "claims": [
                {"name": n, "verdict": v, "witness": _witness_json(w)}
                for n, v, w in self.claims
            ],
            "all_pass": self.passed(),
        }


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, RationalMap):
        return {"moebius": moebius_entries_to_json(w)}
    if isinstance(w, tuple):
        return list(w)
    return str(w)


# -- Moebius factor -------------------------------------------------------------------


def mobius_factor_exists(R, S):
    """An exact Moebius map (of degree 1) with R = sigma o S, or None.

    With sigma = (az+b)/(cz+d) and both maps stored in lowest terms with a
    monic denominator, R = sigma o S holds exactly when
        R.num = a S.num + b S.den  and  R.den = c S.num + d S.den,
    so each of R.num and R.den must lie in the span of S.num and S.den.
    That span test is linear algebra over the base field; a system with
    coefficients in K that is solvable over C is solvable over K.
    """
    if R.ctx is not S.ctx:
        raise MapError("maps live over different field contexts")
    if R.degree != S.degree:
        return None
    n = S.degree
    u, v = S.num.padded(n), S.den.padded(n)
    # S is nonconstant, so its numerator and denominator are independent
    # and some 2x2 minor of the coefficient columns is nonzero
    i, j = next(
        (i, j) for j in range(n + 1) for i in range(j)
        if not (u[i] * v[j] - u[j] * v[i]).is_zero()
    )
    inv = (u[i] * v[j] - u[j] * v[i]).inverse()
    entries = []
    for target in (R.num.padded(n), R.den.padded(n)):
        x = (target[i] * v[j] - target[j] * v[i]) * inv
        y = (u[i] * target[j] - u[j] * target[i]) * inv
        if any(x * uk + y * vk != tk for uk, vk, tk in zip(u, v, target)):
            return None
        entries += (x, y)
    # R is nonconstant, so the solved rows are independent: det(sigma) != 0
    return RationalMap.moebius(*entries)


# -- certificate bundles ----------------------------------------------------------------


def check_counterexample_triple(R, S, T):
    """The three conditions making f = RoT and g = SoT share a measure.

    (i) ToR = ToS exactly; (ii) no Moebius sigma with R = sigma o S;
    (iii) fof = fog exactly for f = RoT, g = SoT, decided without building
    the composites of degree deg(f)^2.

    (ii) and (iii) together prove f^n != sigma o g^m for every Moebius sigma
    over C and all n, m >= 1.  By (iii) and induction, f o g^j = f^(j+1)
    for j >= 0, and deg f = deg g, so f^n = sigma o g^m forces n = m.  Then
    f o g^(n-1) = f^n = sigma o g o g^(n-1), and g^(n-1) is onto, so
    f = sigma o g; T is onto, so R = sigma o S.  A sigma over C gives one
    over the base field (``mobius_factor_exists``), against (ii).
    """
    for m in (R, S, T):
        if m.degree < 2:
            raise MapError("counterexample maps must have degree >= 2")
    rep = CertificateReport()
    X, Y = T.compose(R), T.compose(S)
    x_is_y = maps_equal(X, Y)
    rep.add("T∘R = T∘S", "PASS" if x_is_y else "FAIL")
    sigma = mobius_factor_exists(R, S)
    if sigma is not None:
        rep.add("no Moebius factor R = σ∘S", "FAIL", sigma)
    else:
        rep.add("no Moebius factor R = σ∘S", "PASS",
                "degrees differ" if R.degree != S.degree else None)
    # fof = RoXoT and fog = RoYoT, and T is onto the sphere, so they are
    # equal exactly when RoX = RoY
    fof_is_fog = x_is_y or _composites_equal([X, R], [Y, R])
    rep.add("f∘f = f∘g", "PASS" if fof_is_fog else "FAIL")
    return rep


def check_main1_relations(F, G):
    """F∘F = F∘G and G∘F = G∘G, both exact, by ``_composites_equal``."""
    if F.degree < 2 or G.degree < 2:
        raise MapError("relation check requires degrees >= 2")
    if F.ctx is not G.ctx:
        raise MapError("maps live over different field contexts")
    names = {id(G): "G", id(F): "F"}
    rep = CertificateReport()
    for X, name in ((F, "F∘F = F∘G"), (G, "G∘F = G∘G")):
        rep.add(name, "PASS" if _composites_equal([F, X], [G, X], names) else "FAIL")
    return rep


# -- relations between iterates --------------------------------------------------------


def _composite(maps, names):
    """The composite of ``maps``, applied first to last.

    A run of one map repeated n > 1 times is built as its nth iterate by
    ``RationalMap.iterate``, so it meets the iterate height budget: over
    ITERATE_HEIGHT_BUDGET, SizeBudgetError before any composing, calling the
    map by its name in ``names`` (keyed by id).  The callers bound the degree.
    """
    out = None
    for _, run in groupby(maps, key=id):
        run = list(run)
        f, n = run[0], len(run)
        name = (names or {}).get(id(f), "f")
        part = f if n == 1 else f.iterate(n, budget=f.degree**n, name=name)
        out = part if out is None else part.compose(out)
    return out


# Values compared before composing: the value at z = k is taken modulo
# SCREEN_PRIMES[k], the eight largest primes below 2^61.  Distinct maps that
# agree at 0 alone, or at 0, 1 and infinity, are common: 2z^2 - z and
# 3z^2 - 2z fix all three, and a shared-iterate search between them that
# composed every candidate up to degree 4096 would take 14 s (2-vCPU Xeon
# VM), where their values at 2 differ at once.  Exact values of an iterate
# have about d^n times the bits of the map: screening two 40-digit
# quadratics up to degree 4096 took 22 s on exact values.  One prime for all
# points would pass maps equal modulo it, as z^2 and z^2 + (2^61 - 1)/2^61
# are modulo 2^61 - 1, to composing at every candidate.
SCREEN_PRIMES = tuple(2**61 - c for c in (1, 31, 45, 229, 259, 283, 339, 391))


def _screen_separates(fs, gs, memo=None):
    """Whether unequal degrees, or unequal values at one of z = 0, 1, ...,
    len(SCREEN_PRIMES) - 1, prove the composites of ``fs`` and of ``gs``
    (each applied first to last) different.

    The value at k is computed on the integer lift of each map (its
    numerator and denominator cleared over one denominator), in F_p[alpha]
    for p = SCREEN_PRIMES[k]: with a minimal polynomial free of p in its
    denominators, reducing the integer coordinates modulo p is a ring map.
    Exactly equal points have fu gv - fv gu = 0, which stays 0 modulo p, so
    a nonzero residue proves the points different.  A point whose prime
    divides a denominator of the minimal polynomial is not screened.
    ``memo`` keeps the lifts (keyed by map id and prime), and the values of
    the composites of prefixes, across the calls of one search.
    """
    if prod(f.degree for f in fs) != prod(g.degree for g in gs):
        return True
    memo = {} if memo is None else memo

    def value(maps, k, p, mul):
        key = (tuple(map(id, maps)), k)
        if key not in memo:
            u, v = value(maps[:-1], k, p, mul) if len(maps) > 1 else (k, 1)
            f = maps[-1]
            if (id(f), p) not in memo:
                memo[id(f), p] = residues_mod((f.num, f.den), p)
            vpow = [1]
            for _ in range(f.degree):
                vpow.append(mul(vpow[-1], v))
            # sum c_i u^i v^(d-i) by Horner from the top coefficient
            out = []
            for cs in memo[id(f), p]:
                acc = 0
                for i in range(len(cs) - 1, -1, -1):
                    acc = mul(acc, u) + mul(cs[i], vpow[f.degree - i])
                out.append(acc)
            memo[key] = out
        return memo[key]

    for k, p in enumerate(SCREEN_PRIMES):
        mul = residue_product(fs[0].ctx, p)
        if mul is None:
            continue
        (fu, fv), (gu, gv) = value(fs, k, p, mul), value(gs, k, p, mul)
        if mul(fu, gv) != mul(fv, gu):
            return True
    return False


def _composites_equal(fs, gs, names=None, memo=None):
    """Whether the composites of ``fs`` and of ``gs`` (each applied first to
    last) are equal.

    A pair the screen does not separate has both composites built
    (``_composite``, which names the maps by ``names``): composites of maps
    in lowest terms stay in lowest terms with a monic denominator, so
    comparing them is an exact equality test of maps.
    """
    return not _screen_separates(fs, gs, memo) and maps_equal(_composite(fs, names),
                                                        _composite(gs, names))


def _least_relation(f, g, ns, budget, names="fg"):
    """The least (n, m, k) with n in ``ns``, m, k >= 1, (deg g)^m = (deg f)^k
    and f^n o g^m = f^(n+k), by composite degree (deg f)^(n+k) <= budget,
    then by n; or None.  Each candidate is decided by ``_composites_equal``,
    with one screen memo, and ``names`` names f and g in its errors.
    """
    names, memo = {id(g): names[1], id(f): names[0]}, {}
    top = budget.bit_length()  # a degree >= 2 to the power top exceeds budget
    m_for = {g.degree**m: m for m in range(1, top)}
    for s in range(1, top):
        if f.degree**s > budget:
            break
        for n in range(s):
            m = m_for.get(f.degree ** (s - n))
            if n in ns and m and _composites_equal([g] * m + [f] * n, [f] * s, names, memo):
                return n, m, s - n
    return None


def shared_iterate_search(f, g, budget=DEFAULT_DEGREE_BUDGET):
    """Least (n, m) by n+m with f^n = g^m of composite degree <= budget.

    The n = 0 slice of ``_least_relation``: a candidate that the screen
    does not separate has both iterates composed, under the height rule of
    ``RationalMap.iterate`` (SizeBudgetError), and compared exactly.
    Iterates of a Moebius map keep degree 1, so the budget would not bound
    the search: both maps must have degree >= 2.
    """
    if min(f.degree, g.degree) < 2:
        raise MapError("shared-iterate search needs maps of degree >= 2")
    if budget < max(f.degree, g.degree):
        raise MapError("budget below the maps' degrees")
    if f.ctx is not g.ctx:
        raise MapError("maps live over different field contexts")
    found = _least_relation(f, g, range(1), budget)
    return found and (found[2], found[1])


# -- equal maximal-entropy measures ----------------------------------------------------


def same_measure_identity(f, g):
    """An exact identity proving mu_f = mu_g, as (route, witness), or None.

    - f^n o g^m = f^(n+k) (see the module docstring), witness {n, m, k},
      tried up to composite degree DEFAULT_DEGREE_BUDGET; then the same
      with f and g swapped, for n >= 1 (n = 0 is the same shared iterate).
      This covers g = f^j, g = sigma_f o f^j, fof = fog, and sigma o f o
      sigma^-1 against f for a sigma with f o sigma = f or with f^2 o sigma
      = f^2.
    - f o g = g o f: then f^*(g^* mu_f) = g^*(f^* mu_f) = d g^* mu_f, so
      g^* mu_f / deg g is an atomless probability measure that f pulls back
      to d times itself: it is mu_f, and by the same uniqueness mu_g = mu_f
      (cf. Dinh-Sibony 2002).

    Maps over different field contexts are not compared.
    """
    if min(f.degree, g.degree) < 2:
        raise MapError("the measure identities need maps of degree >= 2")
    if f.ctx is not g.ctx:
        return None
    budget = DEFAULT_DEGREE_BUDGET
    for a, b, ns, names, route in ((f, g, range(budget), "fg", "fⁿ∘gᵐ = f^(n+k)"),
                                   (g, f, range(1, budget), "gf", "gⁿ∘fᵐ = g^(n+k)")):
        found = _least_relation(a, b, ns, budget, names)
        if found:
            return route, dict(zip("nmk", found))
    if f.degree * g.degree <= budget and _composites_equal([g, f], [f, g]):
        return "f∘g = g∘f", None
    return None


def invariant_measure_identity(f, phi):
    """An exact identity proving phi_* mu_f = mu_f, as (route, witness), or
    None.

    ``phi`` is a RationalMap over f's field context.
    - phi = f: f_* mu_f = mu_f.
    - a Moebius sigma (degree 1): sigma_* mu_f = mu_(sigma o f o sigma^-1), so
      ``same_measure_identity`` of f and sigma o f o sigma^-1 decides it.
    """
    if phi.ctx is not f.ctx:
        return None
    if maps_equal(phi, f):
        return "φ = f", None
    if phi.degree != 1:
        return None
    return same_measure_identity(f, moebius_conjugate(f, phi))


def moebius_conjugate(f, sigma):
    """sigma o f o sigma^-1 for a Moebius map sigma over f's field context:
    sigma_* mu_f is its measure."""
    (b, a), (d, c) = sigma.num.padded(1), sigma.den.padded(1)
    return sigma.compose(f).compose(RationalMap.moebius(d, -b, -c, a))


# -- unequal measures of polynomials -----------------------------------------------------

# moments m_1 .. m_MOMENT_BUDGET are compared before ``moment_test`` gives up
MOMENT_BUDGET = 40


def polynomial_moments(f):
    """The moments m_1, ..., m_MOMENT_BUDGET of mu_f for a polynomial f, one
    at a time, as base-field elements (see the module docstring).

    Over its leading coefficient a_d, f(y) - x is y^d + s_1 y^(d-1) + ...
    + s_d with s_i = a_(d-i)/a_d for i < d and s_d = (a_0 - x)/a_d, and
    Newton's identities give p_k = -(s_1 p_(k-1) + ... + s_(k-1) p_1) - k s_k
    with s_i = 0 for i > d.  Only the s_i that these k read are built.
    """
    ctx, d = f.ctx, f.degree
    a = f.num.coeffs
    inv = a[d].inverse()
    s = {i: Poly.constant(ctx, a[d - i] * inv)
         for i in range(1, min(d, MOMENT_BUDGET + 1)) if a[d - i]}
    if d <= MOMENT_BUDGET:
        s[d] = Poly(ctx, [a[0] * inv, -inv])
    p, m = [None], [ctx.one]  # p_0 is not read
    for k in range(1, MOMENT_BUDGET + 1):
        newton = s[k].scale(k) if k in s else Poly.zero(ctx)
        pk = -sum((si * p[k - i] for i, si in s.items() if i < k), newton)
        p.append(pk)
        m.append(sum((c * m[j] for j, c in enumerate(pk.coeffs)), ctx.zero) / d)
        yield m[-1]


def _powers_equal(x, p, y, q):
    """Whether x^p = y^q, for integers x, y >= 1 and p, q >= 0, without
    forming the powers: for p >= q, x^p = y^q needs x^q | y^q, so x | y, and
    then x^(p-q) = (y/x)^q."""
    while p and q:
        if p < q:
            x, p, y, q = y, q, x, p
        if y % x:
            return False
        y //= x
        p -= q
    return (x == 1 or not p) and (y == 1 or not q)


def moment_test(f, g):
    """An exact invariant proving mu_f != mu_g, as (route, witness), or None.

    It decides polynomials f and g over one field context (None otherwise):
    - capacity, when both leading coefficients a_f and a_g are rational: mu_f
      is the equilibrium measure of the filled Julia set of f, whose
      capacity is |a_f|^(-1/(d-1)), d = deg f.  With e = deg g, unequal
      a_f^(2(e-1)) and a_g^(2(d-1)) prove the filled Julia sets, and so the
      measures, different; witness {"leading": [a_f, a_g], "degrees": [d, e]}.
    - moments: the first k <= MOMENT_BUDGET with m_k(f) != m_k(g)
      (``polynomial_moments``), witness {"k": k, "f": m_k(f), "g": m_k(g)}.
    Equal capacities and equal moments up to the budget prove nothing, so
    the answer is None then.
    """
    if f.ctx is not g.ctx or f.den.degree or g.den.degree:
        return None
    (a, d), (b, e) = ((h.num.leading(), h.degree) for h in (f, g))
    if a.is_rational() and b.is_rational():
        x, y = abs(a.as_fraction()), abs(b.as_fraction())
        if not (_powers_equal(x.numerator, e - 1, y.numerator, d - 1)
                and _powers_equal(x.denominator, e - 1, y.denominator, d - 1)):
            return "capacity", {"leading": [element_to_json(a), element_to_json(b)],
                                "degrees": [d, e]}
    for k, (mf, mg) in enumerate(zip(polynomial_moments(f), polynomial_moments(g)), 1):
        if mf != mg:
            return "moments", {"k": k, "f": element_to_json(mf), "g": element_to_json(mg)}
    return None


# -- measure verdicts ----------------------------------------------------------------------

INCONCLUSIVE_REASON = "no exact identity or invariant decides the pair"


@dataclass
class MeasureReport:
    """SAME by a theorem resting on an exact identity (the route names the
    identity, the witness its exponents), DIFFERENT by an exact invariant
    of polynomial maps (route "capacity" or "moments", the witness its
    unequal values), or INCONCLUSIVE with no route, when neither decides.
    No cloud is drawn, so no count, depth or seed is reported."""

    verdict: str
    route: str | None = None
    witness: dict | None = None
    meta: dict = field(default_factory=dict)

    def as_dict(self):
        if self.route is None:
            return {"verdict": self.verdict, "reason": INCONCLUSIVE_REASON, **self.meta}
        return {"verdict": self.verdict, "route": self.route, "witness": self.witness,
                **self.meta}


def map_digest(f):
    ns, ds = ([element_to_json(c) for c in p.coeffs] for p in (f.num, f.den))
    return hashlib.sha256(repr((ns, ds)).encode()).hexdigest()[:16]


def _check_comparison(maps):
    """The input error of every route, raised before any route runs."""
    if any(f.degree < 2 for f in maps):
        raise MapError("comparing maximal-entropy measures requires degree >= 2")


def same_measure_test(f, g):
    """SAME by an exact identity (``same_measure_identity``), else DIFFERENT
    by an exact invariant (``moment_test``), else INCONCLUSIVE."""
    _check_comparison((f, g))
    meta = {"maps": [map_digest(f), map_digest(g)]}
    exact = same_measure_identity(f, g)
    if exact is not None:
        return MeasureReport("SAME", *exact, meta=meta)
    exact = moment_test(f, g)
    if exact is not None:
        return MeasureReport("DIFFERENT", *exact, meta=meta)
    return MeasureReport("INCONCLUSIVE", meta=meta)


def sigma_invariance_check(f, sigma):
    """Whether sigma_* mu_f = mu_f: SAME by an exact identity
    (``invariant_measure_identity``), else, for a Moebius sigma over f's
    field, DIFFERENT by an exact invariant of f against sigma o f o
    sigma^-1, whose measure is sigma_* mu_f (``moment_test``), else
    INCONCLUSIVE."""
    _check_comparison((f,))
    meta = {"map": map_digest(f)}
    exact = invariant_measure_identity(f, sigma)
    if exact is not None:
        return MeasureReport("SAME", *exact, meta=meta)
    if sigma.degree == 1 and sigma.ctx is f.ctx:
        exact = moment_test(f, moebius_conjugate(f, sigma))
        if exact is not None:
            return MeasureReport("DIFFERENT", *exact, meta=meta)
    return MeasureReport("INCONCLUSIVE", meta=meta)


# -- quadratic involution ----------------------------------------------------------------


def sigma_f_quadratic(f):
    """The nontrivial Moebius involution with f o sigma_f = f, for deg f = 2.

    For f = (az^2+bz+c)/(dz^2+ez+r), dividing f(x) - f(y) cleared of
    denominators by (x - y) leaves the symmetric bilinear factor
        (bd-ae)xy + (cd-ar)(x+y) + (ce-br),
    whose second root in x solves to
        sigma_f(z) = ((ar-cd)z + (br-ce)) / ((bd-ae)z + (cd-ar)).
    """
    if f.degree != 2:
        raise MapError("sigma_f is defined for degree-2 maps only")
    a, b, c = f.num.coeff(2), f.num.coeff(1), f.num.coeff(0)
    d, e, r = f.den.coeff(2), f.den.coeff(1), f.den.coeff(0)
    try:
        sigma = RationalMap.moebius(a * r - c * d, b * r - c * e, b * d - a * e, c * d - a * r)
    except MapError as exc:
        raise ConsistencyError(
            "degenerate involution for a degree-2 map (vanishing determinant)"
        ) from exc
    if not maps_equal(f.compose(sigma), f):
        raise ConsistencyError("computed involution does not fix the map")
    if not maps_equal(sigma.compose(sigma), RationalMap.polynomial(Poly.x(f.ctx))):
        raise ConsistencyError("computed involution does not square to the identity")
    return sigma
