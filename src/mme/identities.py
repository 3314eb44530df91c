"""Exact certificates for composition identities between rational maps.

Every verdict of a certificate is decided by exact arithmetic over the
base field: an identity by comparing the coefficients of both sides in
lowest terms, once their values at a few integers, taken modulo a large
prime, have not already told them apart; the absence of a Moebius factor
R = sigma o S by a span test on the numerators and denominators
(``mobius_factor_exists``).
An identity that forces two maps to share their measure of maximal
entropy (``same_measure_identity``, ``invariant_measure_identity``)
proves that by a theorem, with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from math import prod

from .numeric import ConsistencyError
from .polys import residue_product, residues_mod
from .ratmaps import DEFAULT_DEGREE_BUDGET, MapError, Moebius, maps_equal
from .serialize import element_to_json


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
    if isinstance(w, Moebius):
        return {"moebius": [element_to_json(e) for e in w.entries()]}
    if isinstance(w, tuple):
        return list(w)
    return str(w)


# -- Moebius factor -------------------------------------------------------------------


def mobius_factor_exists(R, S):
    """An exact Moebius with R = sigma o S, or None.

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
    return Moebius(*entries)


# -- certificate bundles ----------------------------------------------------------------


def check_counterexample_triple(R, S, T):
    """The three conditions making f = RoT and g = SoT share a measure.

    (i) ToR = ToS exactly; (ii) no Moebius sigma with R = sigma o S;
    (iii) fof = fog exactly for f = RoT, g = SoT, decided without building
    the composites of degree deg(f)^2.
    """
    for m in (R, S, T):
        if m.degree < 2:
            raise MapError("counterexample maps must have degree >= 2")
    rep = CertificateReport()
    X, Y = T.compose(R), T.compose(S)
    x_is_y = maps_equal(X, Y)
    rep.add("T∘R = T∘S", "PASS" if x_is_y else "FAIL")
    if R.degree != S.degree:
        rep.add("no Moebius factor R = σ∘S", "PASS", "degrees differ")
    else:
        sigma = mobius_factor_exists(R, S)
        if sigma is None:
            rep.add("no Moebius factor R = σ∘S", "PASS")
        else:
            rep.add("no Moebius factor R = σ∘S", "FAIL", sigma)
    # fof = RoXoT and fog = RoYoT, and T is onto the sphere, so they are
    # equal exactly when RoX = RoY
    fof_is_fog = x_is_y or _composites_equal([X, R], [Y, R])
    rep.add("f∘f = f∘g", "PASS" if fof_is_fog else "FAIL")
    return rep


def check_main1_relations(F, G):
    """F∘F = F∘G and G∘F = G∘G, both exact."""
    if F.degree < 2 or G.degree < 2:
        raise MapError("relation check requires degrees >= 2")
    rep = CertificateReport()
    rep.add("F∘F = F∘G", "PASS" if maps_equal(F.compose(F), F.compose(G)) else "FAIL")
    rep.add("G∘F = G∘G", "PASS" if maps_equal(G.compose(F), G.compose(G)) else "FAIL")
    return rep


# -- shared iterates -----------------------------------------------------------------


def _composite(maps):
    """The composite of ``maps``, applied first to last.

    A run of one map repeated n > 1 times is built as its nth iterate by
    ``RationalMap.iterate``, so it meets the iterate height budget: over
    ITERATE_HEIGHT_BUDGET, SizeBudgetError before any composing.  The
    callers bound the degree.
    """
    out = None
    for _, run in groupby(maps, key=id):
        run = list(run)
        f, n = run[0], len(run)
        part = f if n == 1 else f.iterate(n, budget=f.degree**n)
        out = part if out is None else part.compose(out)
    return out


# Values compared before composing.  Distinct maps that agree at 0 alone, or
# at 0, 1 and infinity, are common: 2z^2 - z and 3z^2 - 2z fix all three,
# and a shared-iterate search between them that composed every candidate up
# to degree 4096 would take 14 s (2-vCPU Xeon VM), where their values at 2
# differ at once.
SCREEN_POINTS = 8
# The screen's values are taken modulo this prime.  Exact values of an
# iterate have about d^n times the bits of the map: for two quadratics with
# 40-digit coefficients, screening every candidate up to degree 4096 took
# 22 s on exact values, and ``measure`` screens every pair of maps of equal
# degree before it samples.
SCREEN_PRIME = 2**61 - 1


def _screen_separates(fs, gs):
    """Whether unequal degrees, or unequal values at one of z = 0, 1, ...,
    SCREEN_POINTS - 1, prove the composites of ``fs`` and of ``gs`` (each
    applied first to last) different.

    A value is computed on the integer lift of each map (its numerator and
    denominator cleared over one denominator), in F_p[alpha] for
    p = SCREEN_PRIME: with a minimal polynomial free of p in its
    denominators, reducing the integer coordinates modulo p is a ring map.
    Exactly equal points have fu gv - fv gu = 0, which stays 0 modulo p, so
    a nonzero residue proves the points different.  A field with p in a
    denominator of its minimal polynomial is not screened.
    """
    if prod(f.degree for f in fs) != prod(g.degree for g in gs):
        return True
    ctx = fs[0].ctx
    mul = residue_product(ctx, SCREEN_PRIME)
    if mul is None:
        return False
    lifts = {}
    for f in fs + gs:
        if id(f) not in lifts:
            lifts[id(f)] = (f.degree, residues_mod((f.num, f.den), SCREEN_PRIME))

    def apply(maps, u, v):
        for f in maps:
            d, pair = lifts[id(f)]
            vpow = [1]
            for _ in range(d):
                vpow.append(mul(vpow[-1], v))
            # sum c_i u^i v^(d-i) by Horner from the top coefficient
            out = []
            for cs in pair:
                acc = 0
                for i in range(len(cs) - 1, -1, -1):
                    acc = mul(acc, u) + mul(cs[i], vpow[d - i])
                out.append(acc)
            u, v = out
        return u, v

    for k in range(SCREEN_POINTS):
        fu, fv = apply(fs, k, 1)
        gu, gv = apply(gs, k, 1)
        if mul(fu, gv) != mul(fv, gu):
            return True
    return False


def _composites_equal(fs, gs):
    """Whether the composites of ``fs`` and of ``gs`` (each applied first to
    last) are equal.

    A pair the screen does not separate has both composites built
    (``_composite``): composites of maps in lowest terms stay in lowest
    terms with a monic denominator, so comparing them is an exact equality
    test of maps.
    """
    return not _screen_separates(fs, gs) and maps_equal(_composite(fs), _composite(gs))


def shared_iterate_search(f, g, budget=DEFAULT_DEGREE_BUDGET):
    """Least (n, m) by n+m with f^n = g^m of composite degree <= budget.

    Degrees must match before any map comparison happens.  Each candidate
    is decided by ``_composites_equal``: a mismatch usually shows in the
    values at the first few integers, and only a candidate that agrees
    there has both iterates composed, under the height rule of
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
    candidates = []
    dn = f.degree
    n = 1
    while dn <= budget:
        dm = g.degree
        m = 1
        while dm <= budget:
            if dn == dm:
                candidates.append((n, m))
            dm *= g.degree
            m += 1
        dn *= f.degree
        n += 1
    candidates.sort(key=lambda t: (t[0] + t[1], t[0]))
    for n, m in candidates:
        if _composites_equal([f] * n, [g] * m):
            return (n, m)
    return None


def fiber_iterate(f, g):
    """The k >= 1 with f∘g = f^(k+1), or None.

    Such a k has deg g = (deg f)^k; the identity is tried only while
    (deg f)^(k+1) is within DEFAULT_DEGREE_BUDGET, and decided by
    ``_composites_equal``, as the candidates of ``shared_iterate_search``.
    """
    d = f.degree
    if d < 2:
        raise MapError("the fiber identity needs deg f >= 2")
    if f.ctx is not g.ctx:
        raise MapError("maps live over different field contexts")
    k, dk = 1, d
    while dk < g.degree:
        k, dk = k + 1, dk * d
    if dk != g.degree or dk * d > DEFAULT_DEGREE_BUDGET:
        return None
    return k if _composites_equal([g, f], [f] * (k + 1)) else None


# -- equal maximal-entropy measures ----------------------------------------------------


def same_measure_identity(f, g):
    """An exact identity proving mu_f = mu_g, as (route, witness), or None.

    - f∘g = f^(k+1) (``fiber_iterate``): f^*mu_f = d mu_f, so
      g^*mu_f = deg(g) mu_f, and mu_g is the only atomless measure with that
      property (Lyubich 1983; Freire-Lopes-Mane 1983).  The same with f and
      g swapped.  This covers f∘f = f∘g, g = f^n and g = sigma_f∘f^n.
    - f^n = g^m (``shared_iterate_search``): mu_f = mu_(f^n) = mu_(g^m) = mu_g.

    Maps over different field contexts, or of degree above the degree
    budget, are not compared.
    """
    if f.ctx is not g.ctx:
        return None
    for a, b, route in ((f, g, "f∘g = f^(k+1)"), (g, f, "g∘f = g^(k+1)")):
        k = fiber_iterate(a, b)
        if k is not None:
            return route, {"k": k}
    if max(f.degree, g.degree) <= DEFAULT_DEGREE_BUDGET:
        pair = shared_iterate_search(f, g)
        if pair is not None:
            return "f^n = g^m", {"n": pair[0], "m": pair[1]}
    return None


def invariant_measure_identity(f, phi):
    """An exact identity proving phi_* mu_f = mu_f, as a route name, or None.

    ``phi`` is a RationalMap or a Moebius map over f's field context.
    - phi = f: f_* mu_f = mu_f.
    - a Moebius sigma with f∘sigma = f: sigma permutes every fiber of f with
      its multiplicities, so the pullback f^* mu_f = d mu_f is
      sigma-invariant, and so is mu_f.
    - a Moebius sigma with sigma∘f = f∘sigma:
      sigma_* mu_f = mu_(sigma∘f∘sigma^-1) = mu_f.
    """
    if phi.ctx is not f.ctx:
        return None
    if isinstance(phi, Moebius):
        phi = phi.as_rational_map()
    if maps_equal(phi, f):
        return "φ = f"
    if phi.degree == 1:
        if maps_equal(f.compose(phi), f):
            return "f∘σ = f"
        if maps_equal(phi.compose(f), f.compose(phi)):
            return "σ∘f = f∘σ"
    return None


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
        sigma = Moebius(a * r - c * d, b * r - c * e, b * d - a * e, c * d - a * r)
    except MapError as exc:
        raise ConsistencyError(
            "degenerate involution for a degree-2 map (vanishing determinant)"
        ) from exc
    if not maps_equal(f.compose(sigma.as_rational_map()), f):
        raise ConsistencyError("computed involution does not fix the map")
    if not sigma.compose(sigma).is_identity():
        raise ConsistencyError("computed involution does not square to the identity")
    return sigma
