"""Shorthand parser for rational-map expressions like "z^3-3z".

Single-character symbols, integer constants, and the variable z combine
with + - * / ^ and parentheses; adjacency means multiplication ("3z",
"az", "2(z+1)").  Symbols must be bound to exact field elements.  The
parser works over pairs (numerator, denominator) of exact polynomials, so
any expression denotes a rational function.
"""

from __future__ import annotations

from .fields import to_fraction
from .polys import Poly, integer_height, product_growth
from .ratmaps import (DEFAULT_DEGREE_BUDGET, ITERATE_HEIGHT_BUDGET, MapError, RationalMap,
                      SizeBudgetError)


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


def _tokenize(text):
    tokens = []  # (kind, value, pos)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # past Python's limit on integer digits
                raise ParseError("integer of %d digits is too long" % (j - i), i) from None
            i = j
        elif ch.isalpha():
            tokens.append(("sym", ch, i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError("unexpected character %r" % ch, i)
    return tokens


def _product(p, q):
    """p * q, refused before it is built when its degree exceeds the degree
    budget of iterate or its height bound the height budget."""
    degree = p.degree + q.degree
    if degree > DEFAULT_DEGREE_BUDGET:
        raise SizeBudgetError("a product of degree %d exceeds the degree budget %d"
                              % (degree, DEFAULT_DEGREE_BUDGET))
    if not (p.is_zero() or q.is_zero()) and (
            integer_height(p) + integer_height(q) + product_growth(p.ctx) > ITERATE_HEIGHT_BUDGET):
        raise SizeBudgetError("a product may have coefficients of more than %d bits, "
                              "the iterate budget" % ITERATE_HEIGHT_BUDGET)
    return p * q


class _Parser:
    def __init__(self, tokens, ctx, bindings):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx
        self.bindings = bindings

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        end = self.tokens[-1][2] + 1 if self.tokens else 0
        return (None, None, end)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    # value representation: (num: Poly, den: Poly)

    def parse(self):
        val = self.expr()
        kind, _, pos = self.peek()
        if kind is not None:
            raise ParseError("trailing input", pos)
        return val

    def expr(self):
        kind, _, _ = self.peek()
        negate = False
        while kind in ("+", "-"):
            self.take()
            if kind == "-":
                negate = not negate
            kind, _, _ = self.peek()
        val = self.term()
        if negate:
            val = (-val[0], val[1])
        while True:
            kind, _, _ = self.peek()
            if kind not in ("+", "-"):
                return val
            op, _, _ = self.take()
            rhs = self.term()
            p1, q1 = val
            p2, q2 = rhs
            if op == "+":
                val = (_product(p1, q2) + _product(p2, q1), _product(q1, q2))
            else:
                val = (_product(p1, q2) - _product(p2, q1), _product(q1, q2))

    def term(self):
        val = self.power()
        while True:
            kind, _, _ = self.peek()
            if kind not in ("*", "/", "int", "sym", "("):
                return val
            if kind in ("*", "/"):
                self.take()
            rhs = self.power()  # without an operator: multiplication by adjacency
            if kind == "/":
                if rhs[0].is_zero():
                    raise MapError("division by the zero expression")
                rhs = (rhs[1], rhs[0])
            val = (_product(val[0], rhs[0]), _product(val[1], rhs[1]))

    def power(self):
        base = self.primary()
        kind, _, _ = self.peek()
        if kind != "^":
            return base
        self.take()
        sign = 1
        kind, _, pos = self.peek()
        if kind == "-":
            self.take()
            sign = -1
        kind, value, pos = self.take()
        if kind != "int":
            raise ParseError("exponent must be an integer", pos)
        p, q = base
        if sign < 0:
            p, q = q, p
            if p.is_zero():
                raise MapError("negative power of zero")
        # the budgets of iterate, applied before the power is built
        degree = value * max(p.degree, q.degree)
        if degree > DEFAULT_DEGREE_BUDGET:
            raise SizeBudgetError("a power of degree %d exceeds the degree budget %d"
                                  % (degree, DEFAULT_DEGREE_BUDGET))
        if value > 1 and value * integer_height(p, q) > ITERATE_HEIGHT_BUDGET:
            raise SizeBudgetError("a power may have coefficients of more than %d bits, "
                                  "the iterate budget" % ITERATE_HEIGHT_BUDGET)
        return (p**value, q**value)

    def primary(self):
        kind, value, pos = self.take()
        one = Poly.one(self.ctx)
        if kind == "int":
            return (Poly.constant(self.ctx, self.ctx.from_rational(value)), one)
        if kind == "sym":
            if value == "z":
                return (Poly.x(self.ctx), one)
            if value not in self.bindings:
                raise ParseError("unbound symbol %r" % value, pos)
            return (Poly.constant(self.ctx, self.bindings[value]), one)
        if kind == "(":
            val = self.expr()
            kind, _, pos = self.take()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return val
        if kind == "-":
            p, q = self.primary()
            return (-p, q)
        raise ParseError("expected a number, symbol, or '('", pos)


def parse_rational_expression(text, ctx, bindings=None):
    """(num, den) Poly pair for a shorthand expression over ctx."""
    bindings = bindings or {}
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    return _Parser(tokens, ctx, bindings).parse()


def parse_map(text, ctx, bindings=None):
    """A RationalMap from shorthand like "z^2 + 1/z" or "(z^2-1)/(z^2+1)"."""
    num, den = parse_rational_expression(text, ctx, bindings)
    return RationalMap(num, den)


def parse_binding_value(ctx, value):
    """An exact element of ctx from a number, an element, or text like "-1/3-2/5*w".

    Text is a whole decimal ("0.5") or an expression of the map grammar in
    which w is the generator of ctx; it may not contain z.
    """
    if not isinstance(value, str):
        return ctx._coerce(value)
    try:
        return ctx.from_rational(to_fraction(value.strip()))
    except (ValueError, ZeroDivisionError):
        pass
    if ctx.degree == 1 and "w" in value:
        raise MapError("the generator w in %r needs an extension field (--field)" % value)
    num, den = parse_rational_expression(value, ctx, {"w": ctx.gen()})
    if num.degree > 0 or den.degree > 0:
        raise MapError("%r is not a constant: it depends on z" % value)
    return num.coeff(0) / den.coeff(0)
