"""Exact certificates for composition identities between rational maps.

Every verdict of a certificate is decided by exact arithmetic over the
base field: an identity by comparing the coefficients of both sides in
lowest terms, once their values at a few integers have not already told
them apart; the absence of a Moebius factor R = sigma o S by a span
test on the numerators and denominators (``mobius_factor_exists``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from .numeric import ConsistencyError
from .ratmaps import DEFAULT_DEGREE_BUDGET, MapError, Moebius, maps_equal
from .serialize import element_to_json


@dataclass
class CertificateReport:
    claims: list = field(default_factory=list)  # (name, verdict, witness)

    def add(self, name, verdict, witness=None):
        self.claims.append((name, verdict, witness))

    def passed(self):
        return all(v == "PASS" for _, v, _ in self.claims)

    def verdict(self, name):
        for n, v, _ in self.claims:
            if n == name:
                return v
        raise KeyError(name)

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


def _apply_projective(maps, u, v):
    for f in maps:
        u, v = f.eval_projective(u, v)
    return u, v


def _composite(maps):
    out = maps[0]
    for f in maps[1:]:
        out = f.compose(out)
    return out


# Values compared before composing.  Distinct maps that agree at 0 alone, or
# at 0, 1 and infinity, are common: 2z^2 - z and 3z^2 - 2z fix all three,
# and a shared-iterate search between them that composed every candidate up
# to degree 4096 would take 14 s (2-vCPU Xeon VM), where their values at 2
# differ at once.
SCREEN_POINTS = 8


def _composites_equal(fs, gs):
    """Whether the composites of ``fs`` and of ``gs`` (each applied first to
    last) are equal.

    Unequal degrees, or unequal values at one of z = 0, 1, ...,
    SCREEN_POINTS - 1, prove the maps different at the cost of a few exact
    evaluations.  Otherwise both composites are built: composites of maps
    in lowest terms stay in lowest terms with a monic denominator, so
    comparing them is an exact equality test of maps.
    """
    if prod(f.degree for f in fs) != prod(g.degree for g in gs):
        return False
    ctx = fs[0].ctx
    for k in range(SCREEN_POINTS):
        u, v = ctx.from_rational(k), ctx.one
        fu, fv = _apply_projective(fs, u, v)
        gu, gv = _apply_projective(gs, u, v)
        # projective equality: fu*gv == fv*gu
        if fu * gv != fv * gu:
            return False
    return maps_equal(_composite(fs), _composite(gs))


def shared_iterate_search(f, g, budget=DEFAULT_DEGREE_BUDGET):
    """Least (n, m) by n+m with f^n = g^m of composite degree <= budget.

    Degrees must match before any map comparison happens.  Each candidate is
    decided by ``_composites_equal``: a mismatch usually shows in the values
    at the first few integers, and only a candidate that agrees there has
    both iterates composed and compared exactly.  Iterates of a Moebius map
    keep degree 1, so the budget would not bound the search: both maps must
    have degree >= 2.
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
