"""JSON formats for maps, field elements, and report payloads.

Coefficients serialize as exact "num/den" strings; extension-field
elements as coordinate-string arrays in the power basis of the generator.
Points serialize as [re, im] pairs or the string "inf".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fields import FieldContext, FieldElement, field_configure
from .numeric import is_inf
from .polys import Poly
from .ratmaps import MapError, Moebius, RationalMap


def element_to_json(e):
    if e.is_rational():
        return str(e.as_fraction())
    return [str(c) for c in e.coords]


def element_from_json(ctx, obj):
    if isinstance(obj, str):
        return ctx.from_rational(Fraction(obj))
    if isinstance(obj, (int, float)):
        if isinstance(obj, float) and not obj.is_integer():
            raise MapError("non-exact float coefficient %r" % obj)
        return ctx.from_rational(int(obj))
    if isinstance(obj, list):
        return ctx.element([Fraction(c) for c in obj])
    raise MapError("unrecognized coefficient %r" % (obj,))


def field_to_json(ctx):
    if ctx.degree == 1:
        return "Q"
    return {"minpoly": [str(c) for c in ctx.minpoly]}


def field_from_json(obj):
    if obj in (None, "Q", "rationals"):
        return FieldContext.rationals()
    if isinstance(obj, dict) and "minpoly" in obj:
        return field_configure([Fraction(c) for c in obj["minpoly"]])
    raise MapError("unrecognized field description %r" % (obj,))


def map_to_json(f):
    return {
        "field": field_to_json(f.ctx),
        "num": [element_to_json(c) for c in f.num.coeffs],
        "den": [element_to_json(c) for c in f.den.coeffs],
    }


def map_from_json(obj, ctx=None):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise MapError("map JSON needs 'num' and 'den' coefficient lists")
    if ctx is None:
        ctx = field_from_json(obj.get("field"))
    num = Poly(ctx, [element_from_json(ctx, c) for c in obj["num"]])
    den = Poly(ctx, [element_from_json(ctx, c) for c in obj["den"]])
    return RationalMap(num, den)


def moebius_to_json(m):
    return {"field": field_to_json(m.ctx), "entries": [element_to_json(e) for e in m.entries()]}


def point_to_json(p):
    if is_inf(p):
        return "inf"
    p = complex(p)
    return [p.real, p.imag]


def dumps_report(report):
    """Deterministic JSON text for a report dict."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
