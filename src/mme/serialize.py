"""JSON formats for maps, field elements, and report payloads.

Coefficients serialize as exact "num/den" strings; extension-field
elements as coordinate-string arrays in the power basis of the generator.
Points serialize as [re, im] pairs or the string "inf".
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

from .base import is_inf
from .fields import FieldContext, field_configure, to_fraction
from .polys import Poly
from .ratmaps import ITERATE_HEIGHT_BUDGET, MapError, RationalMap

# the most digits of one integer in a "num/den" string that
# _rational_from_json reads (9865).  A map within the iterate height budget
# has a monic denominator, so its common denominator and every numerator
# have at most ITERATE_HEIGHT_BUDGET bits: each integer of a map that
# iterate or compose writes is read back, past Python's limit on the digits
# of an integer string (4300 by default)
MAX_INTEGER_DIGITS = math.ceil(ITERATE_HEIGHT_BUDGET * math.log10(2))


def _int_to_json(n):
    """n in decimal, of any length: str() of an int refuses past Python's
    limit on digits (4300 by default), str() of a Decimal does not, but is
    slower below it."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _rational_to_json(num, den):
    """num/den in lowest terms, den > 0: "num", or "num/den"."""
    text = _int_to_json(num)
    return text if den == 1 else "%s/%s" % (text, _int_to_json(den))


def _coords_to_json(coords):
    """An element from its coordinates as (numerator, denominator) pairs in
    lowest terms: one string when it is rational, else a list of m strings."""
    if not any(num for num, _ in coords[1:]):
        return _rational_to_json(*coords[0])
    return [_rational_to_json(*c) for c in coords]


def element_to_json(e):
    return _coords_to_json([(c.numerator, c.denominator) for c in e.coords])


def _rational_from_json(obj):
    """A JSON number or a "num/den" string (read by ``fields.to_fraction``)
    as a Fraction; MapError otherwise."""
    if isinstance(obj, str):
        try:
            return to_fraction(obj, max_digits=MAX_INTEGER_DIGITS)
        except (ValueError, ZeroDivisionError) as exc:
            raise MapError("bad coefficient: %s" % exc) from None
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, float) and obj.is_integer():
        return Fraction(int(obj))
    raise MapError("not an exact rational coefficient: %r" % (obj,))


def _list_from_json(obj, what):
    if not isinstance(obj, list):
        raise MapError("%s must be a JSON list, got %r" % (what, obj))
    return obj


def element_from_json(ctx, obj):
    if isinstance(obj, list):
        return ctx.element([_rational_from_json(c) for c in obj])
    return ctx.from_rational(_rational_from_json(obj))


def field_to_json(ctx):
    if ctx.degree == 1:
        return "Q"
    return {"minpoly": [str(c) for c in ctx.minpoly]}


def field_from_json(obj):
    if obj in (None, "Q", "rationals"):
        return FieldContext.rationals()
    if isinstance(obj, dict) and "minpoly" in obj:
        return field_configure([_rational_from_json(c)
                                for c in _list_from_json(obj["minpoly"], "minpoly")])
    raise MapError("unrecognized field description %r" % (obj,))


def map_to_json(f):
    return {
        "field": field_to_json(f.ctx),
        "num": [_coords_to_json(c) for c in f.num.reduced_coords()],
        "den": [_coords_to_json(c) for c in f.den.reduced_coords()],
    }


def map_from_json(obj, ctx=None):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise MapError("map JSON needs 'num' and 'den' coefficient lists")
    if ctx is None:
        ctx = field_from_json(obj.get("field"))
    num, den = (Poly(ctx, [element_from_json(ctx, c) for c in _list_from_json(obj[k], k)])
                for k in ("num", "den"))
    return RationalMap(num, den)


def moebius_entries_to_json(m):
    """[a, b, c, d] of the degree-1 map m = (az + b)/(cz + d), scaled so that
    the first nonzero entry is 1."""
    (b, a), (d, c) = m.num.padded(1), m.den.padded(1)
    pivot = next(e for e in (a, b, c, d) if not e.is_zero())
    return [element_to_json(e / pivot) for e in (a, b, c, d)]


def moebius_to_json(m):
    return {"field": field_to_json(m.ctx), "entries": moebius_entries_to_json(m)}


def point_to_json(p):
    if is_inf(p):
        return "inf"
    p = complex(p)
    # + 0.0 turns -0.0 into 0.0
    return [p.real + 0.0, p.imag + 0.0]


def dumps_report(report):
    """Deterministic JSON text for a report dict."""
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
