"""Built-in example families with their expected certificates.

Each entry constructs its maps exactly (over Q or Q(w) with w^2+w+1=0)
and records which certificate verdicts it is expected to produce, so the
entries double as regression fixtures and CLI demos.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import FieldContext, field_configure, to_fraction
from .identities import (
    CertificateReport,
    check_counterexample_triple,
    maps_equal,
    sigma_f_quadratic,
)
from .parser import parse_binding_value as parse_param
from .polys import Poly
from .ratmaps import DEFAULT_DEGREE_BUDGET, MapError, RationalMap, SizeBudgetError


@dataclass
class CatalogEntry:
    name: str
    ctx: FieldContext
    maps: dict
    params: dict
    expected: list = dc_field(default_factory=list)  # (claim, verdict)

    def run(self):
        """CertificateReport for the entry's claims."""
        if self.name in ("chebyshev-flower", "zieve-family"):
            return check_counterexample_triple(self.maps["R"], self.maps["S"], self.maps["T"])
        rep = CertificateReport()
        f = self.maps["f"]
        if f.degree == 2:
            sigma = sigma_f_quadratic(f)
            rep.add("f∘σ_f = f", "PASS", sigma)  # construction verifies both identities
            rep.add("σ_f∘σ_f = id", "PASS")
        else:
            rep.add("degree", "PASS", ("degree", f.degree))
        return rep


def omega_field():
    """Q(w) with w a primitive cube root of unity (w^2 + w + 1 = 0)."""
    return field_configure([1, 1, 1])


def _int_param(params, name, default):
    try:
        return int(params.get(name, default))
    except (TypeError, ValueError):
        raise MapError("parameter %s must be an integer, got %r" % (name, params[name])) from None


def _chebyshev_flower(params):
    ctx = omega_field()
    a = parse_param(ctx, params.get("a", 1))
    if a.is_zero():
        raise MapError("parameter a must be nonzero")
    w = ctx.gen()
    x = Poly.x(ctx)
    T = RationalMap.polynomial(x**3 - x * 3)
    R = RationalMap(x * x * (a * a) + ctx.one, x * a)
    aw = a * w
    S = RationalMap(x * x * (aw * aw) + ctx.one, x * aw)
    f = R.compose(T)
    g = S.compose(T)
    return CatalogEntry(
        name="chebyshev-flower",
        ctx=ctx,
        maps={"T": T, "R": R, "S": S, "f": f, "g": g},
        params={"a": a},
        expected=[
            ("T∘R = T∘S", "PASS"),
            ("no Moebius factor R = σ∘S", "PASS"),
            ("f∘f = f∘g", "PASS"),
        ],
    )


def _zieve_family(params):
    n = _int_param(params, "n", 2)
    m = _int_param(params, "m", 1)
    if n < 1 or m < 1:
        raise MapError("zieve-family requires n, m >= 1")
    if (n + m) ** 2 > DEFAULT_DEGREE_BUDGET:
        raise SizeBudgetError("zieve-family: degree (n+m)^2 = %d exceeds the composite-degree "
                              "budget %d" % ((n + m) ** 2, DEFAULT_DEGREE_BUDGET))
    ctx = FieldContext.rationals()
    x = Poly.x(ctx)
    one = Poly.one(ctx)
    T = RationalMap.polynomial(x**n * (x + ctx.one) ** m)
    R = RationalMap(one - x**n, x ** (n + m) - one)
    S = RationalMap(x**m * (one - x**n), x ** (n + m) - one)
    f = R.compose(T)
    g = S.compose(T)
    return CatalogEntry(
        name="zieve-family",
        ctx=ctx,
        maps={"T": T, "R": R, "S": S, "f": f, "g": g},
        params={"n": n, "m": m},
        expected=[
            ("T∘R = T∘S", "PASS"),
            # for n = m, T is symmetric under z -> -1-z and that symmetry
            # relates R and S exactly, so a Moebius factor does exist
            ("no Moebius factor R = σ∘S", "PASS" if n != m else "FAIL"),
            ("f∘f = f∘g", "PASS"),
        ],
    )


def _power_map(params):
    d = _int_param(params, "d", 2)
    if d < 2:
        raise MapError("power-map requires d >= 2")
    if d > DEFAULT_DEGREE_BUDGET:
        raise SizeBudgetError("power-map: degree %d exceeds the degree budget %d"
                              % (d, DEFAULT_DEGREE_BUDGET))
    ctx = FieldContext.rationals()
    f = RationalMap.polynomial(Poly.x(ctx) ** d)
    return CatalogEntry(
        name="power-map",
        ctx=ctx,
        maps={"f": f},
        params={"d": d},
        expected=[("f∘σ_f = f", "PASS"), ("σ_f∘σ_f = id", "PASS")] if d == 2 else [],
    )


def _coeffs_param(value):
    """Ascending coefficients: a list, or a string like '1,0,1' from the CLI."""
    if not isinstance(value, str):
        return value
    try:
        return [to_fraction(c) for c in value.split(",")]
    except (ValueError, ZeroDivisionError):
        raise MapError("bad coefficient list %r" % value) from None


def _quadratic_sigma(params):
    ctx = FieldContext.rationals()
    x = Poly.x(ctx)
    if "num" in params or "den" in params:
        if "num" not in params or "den" not in params:
            raise MapError("quadratic-sigma takes num and den together")
        f = RationalMap(Poly(ctx, _coeffs_param(params["num"])),
                        Poly(ctx, _coeffs_param(params["den"])))
        if f.degree != 2:
            raise MapError("quadratic-sigma requires a degree-2 map")
    else:
        f = RationalMap(x * x + ctx.one, x)  # z + 1/z
    return CatalogEntry(
        name="quadratic-sigma",
        ctx=ctx,
        maps={"f": f, "sigma": sigma_f_quadratic(f)},
        params=dict(params),
        expected=[("f∘σ_f = f", "PASS"), ("σ_f∘σ_f = id", "PASS")],
    )


# entry name -> (builder, parameter names it reads)
_BUILDERS = {
    "chebyshev-flower": (_chebyshev_flower, ("a",)),
    "zieve-family": (_zieve_family, ("n", "m")),
    "power-map": (_power_map, ("d",)),
    "quadratic-sigma": (_quadratic_sigma, ("num", "den")),
}
ENTRY_NAMES = tuple(_BUILDERS)


def entry(name, params=None):
    if name not in _BUILDERS:
        raise MapError("unknown catalog entry %r (have: %s)" % (name, ", ".join(ENTRY_NAMES)))
    build, known = _BUILDERS[name]
    params = params or {}
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise MapError(
            "unknown parameter %s for %s (takes: %s)" % (", ".join(unknown), name, ", ".join(known))
        )
    return build(params)


def iterate_square_identity_check(a):
    """f_a∘f_a = f_{-a}∘f_{-a} (with f_a ≠ f_{-a}) for the degree-6 family."""
    ctx = omega_field()
    a = parse_param(ctx, a)
    if a.is_zero():
        raise MapError("parameter a must be nonzero")
    f_plus = _chebyshev_flower({"a": a}).maps["f"]
    f_minus = _chebyshev_flower({"a": -a}).maps["f"]
    if maps_equal(f_plus, f_minus):
        return "FAIL"
    if maps_equal(f_plus.compose(f_plus), f_minus.compose(f_minus)):
        return "PASS"
    return "FAIL"
