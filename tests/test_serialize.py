import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mme.base import INF
from mme.fields import FieldContext, field_configure
from mme.parser import parse_binding_value, parse_map
from mme.polys import Poly
from mme.ratmaps import RationalMap
from mme.serialize import (
    dumps_report,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    map_from_json,
    map_to_json,
    moebius_to_json,
    point_to_json,
)

Q = FieldContext.rationals()


def test_element_roundtrip_rational():
    x = Q.from_rational(7) / Q.from_rational(3)
    assert element_from_json(Q, element_to_json(x)) == x


def test_element_roundtrip_extension():
    ctx = field_configure([1, 1, 1])
    x = ctx.gen() + ctx.from_rational(2)
    assert element_from_json(ctx, element_to_json(x)) == x


FIELDS = [Q, field_configure([1, 1, 1]), field_configure([-2, 0, 0, 1]),
          field_configure([1, 0, 0, 0, 1])]


def literal(x):
    """The text of x in the binding grammar: its coordinates on powers of w."""
    return "+".join("(%s)*w^%d" % (c, k) if k else "(%s)" % c for k, c in enumerate(x.coords))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_reader_and_writer_agree(ctx, data):
    coord = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    coords = data.draw(st.lists(coord, min_size=ctx.degree, max_size=ctx.degree))
    x = ctx.element(coords)
    assert element_from_json(ctx, element_to_json(x)) == x
    assert parse_binding_value(ctx, literal(x)) == x


def test_field_roundtrip_returns_cached_context():
    ctx = field_configure([2, 0, 1])
    assert field_from_json(field_to_json(ctx)) is ctx
    assert field_from_json(field_to_json(Q)) is Q


def test_map_roundtrip_over_q():
    f = RationalMap(Poly(Q, [1, 0, 1]), Poly(Q, [0, 1]))
    assert map_from_json(map_to_json(f)) == f


def test_map_roundtrip_over_extension():
    ctx = field_configure([1, 1, 1])
    f = parse_map("z^2 + a", ctx, {"a": parse_binding_value(ctx, "1+w")})
    assert map_from_json(map_to_json(f)) == f


def reference_element_json(e):
    """An element's JSON from its Fractions: "num/den" strings, every digit
    printed, one string for a rational element."""
    def text(q):
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else "%s/%s" % (num, Decimal(q.denominator))

    return text(e.coords[0]) if e.is_rational() else [text(q) for q in e.coords]


@pytest.mark.parametrize("ctx", FIELDS, ids=["Q", "Q(w)", "Q(cbrt2)", "Q(t^4+1)"])
def test_map_json_from_the_integer_form_equals_the_element_json(ctx):
    m = ctx.degree
    huge = 10**4400 + 7  # past Python's 4300-digit int-to-str limit
    coeffs = [
        ctx.element([Fraction(1, 6)] + [Fraction(1, 4)] * (m - 1)),  # den 12 reduces to 6 and 4
        ctx.zero,
        ctx.element([0] * (m - 1) + [Fraction(-5, 12)]),
        ctx.from_rational(Fraction(-huge, 3)),
        ctx.element([huge] + [Fraction(k, 9) for k in range(1, m)]),
        ctx.from_rational(Fraction(7, 12)),
    ]
    f = RationalMap(Poly(ctx, coeffs), Poly(ctx, [Fraction(2, 3), 0, 1]))
    obj = map_to_json(f)
    assert obj == {"field": field_to_json(ctx),
                   "num": [element_to_json(c) for c in f.num.coeffs],
                   "den": [element_to_json(c) for c in f.den.coeffs]}
    assert obj["num"] == [reference_element_json(c) for c in f.num.coeffs]
    assert obj["den"] == [reference_element_json(c) for c in f.den.coeffs]
    assert obj["num"][1] == "0"


def test_moebius_serialization():
    m = RationalMap.moebius(Q.one, Q.from_rational(2), Q.zero, Q.one)
    obj = moebius_to_json(m)
    assert obj["entries"] == ["1", "2", "0", "1"]


def test_point_to_json_including_infinity():
    assert point_to_json(1.5 + 0.25j) == [1.5, 0.25]
    assert point_to_json(np.complex128(-2j)) == [0.0, -2.0]
    assert point_to_json(INF) == "inf"
    assert json.dumps(point_to_json(0j)) == "[0.0, 0.0]"
    assert json.dumps(point_to_json(complex(4.0, -0.0))) == "[4.0, 0.0]"
    assert json.dumps(point_to_json(complex(-0.0, -0.0))) == "[0.0, 0.0]"


def test_dumps_report_is_deterministic_and_sorted():
    a = dumps_report({"b": 1, "a": [2, 3], "c": {"y": 1, "x": 2}})
    b = dumps_report({"c": {"x": 2, "y": 1}, "a": [2, 3], "b": 1})
    assert a == b
    assert json.loads(a)["a"] == [2, 3]
