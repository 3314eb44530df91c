"""Univariate and bivariate polynomials over a configured field.

Poly stores ascending coefficients with no trailing zeros (the zero
polynomial is the empty tuple).  BiPoly stores a dense coefficient
matrix indexed by (x-degree, y-degree); its products and divisions are
packed univariate ones, x^i y^j read as z^(i + n j) with n above every
x-degree involved.  All operations are exact.
A product of Polys over any field Q(alpha) is one integer product: each
operand is cleared to an integer vector over one common denominator, with
the alpha^k coordinate of the z^i coefficient in slot i(2m - 1) + k (m the
degree of alpha), and the alpha-powers of the product are reduced on
integers.  Q is the case m = 1.  Over Q a projective evaluation runs on
integers too; everything else uses the coefficient arithmetic of
FieldElement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .fields import FieldElement, FieldError, to_fraction


# -- integer products by Kronecker substitution --------------------------------------
#
# An integer vector a is packed into the single integer A = sum a_i 2^(k i), so
# the product of two packed vectors is their packed convolution.  A slot of k
# bits holds every |c_i| < 2^(k-1) of the convolution, whose entries are bounded
# by min(len a, len b) max|a| max|b|.  Slots are whole bytes so that packing and
# unpacking are single int.to_bytes / int.from_bytes passes (linear time).


def _kronecker_product(a, b):
    """The convolution of two nonempty integer lists, by one big-integer product."""
    n = len(a) + len(b) - 1
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 2)
    width = (bits + 7) // 8
    packed = _pack(a, width)
    product = packed * packed if a is b else packed * _pack(b, width)
    # add 2^(k-1) to every slot so that each slot holds c_i + 2^(k-1) >= 0
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    buf = (product + offset).to_bytes(n * width, "little")
    return [int.from_bytes(buf[i:i + width], "little") - half
            for i in range(0, n * width, width)]


def _pack(xs, width):
    """sum xs[i] 2^(8 width i) for integers with |xs[i]| < 2^(8 width - 1)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(width, "little") for x in xs)
    neg = b"".join((-x if x < 0 else 0).to_bytes(width, "little") for x in xs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class Poly:
    __slots__ = ("ctx", "coeffs", "_numeric", "_ints")

    def __init__(self, ctx, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx is not ctx:
                    raise FieldError("coefficient from a different field context")
                cs.append(c)
            else:
                cs.append(ctx.from_rational(to_fraction(c)))
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)
        self._numeric = None
        self._ints = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [1])

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [0, 1])

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, [c])

    # -- structure --------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    def padded(self, n):
        """Coefficient list of length n+1 (ascending)."""
        return [self.coeff(i) for i in range(n + 1)]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return Poly(self.ctx, [c * inv for c in self.coeffs])

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise FieldError("mixing polynomials from different field contexts")
            return other
        if isinstance(other, (int, Fraction, FieldElement, str)):
            return Poly(self.ctx, [other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        # z^i alpha^k sits in slot i s + k, s = 2m - 1, so the integer product
        # holds every z^i alpha^k (k <= 2m - 2) of the product in its own slot
        ctx = self.ctx
        m, s = ctx.degree, 2 * ctx.degree - 1
        rows, r = ctx._integer_reduction
        a, da = self._integer_vector()
        b, db = other._integer_vector()
        conv = _kronecker_product(a, b)
        # alpha^k = sum_i rows[k - m][i] alpha^i / r for k >= m
        cols = [conv[i::s] if r == 1 else [c * r for c in conv[i::s]] for i in range(m)]
        for k, row in enumerate(rows, m):
            top = conv[k::s]
            cols = [[c + w * t for c, t in zip(col, top)] if w else col
                    for col, w in zip(cols, row)]
        den = da * db * r
        return Poly(ctx, [FieldElement(ctx, coords) for coords in
                          zip(*[[Fraction(c, den) for c in col] for col in cols])])

    __rmul__ = __mul__

    def _integer_vector(self):
        """(ints, den) with self = sum(ints[i s + k] z^i alpha^k) / den; cached.

        For a field of degree m the slot stride is s = 2m - 1: the m
        coordinates of coefficient i fill slots i s .. i s + m - 1 and the
        slots up to the next coefficient are zero (none after the last).
        """
        if self._ints is None:
            m = self.ctx.degree
            s = 2 * m - 1
            fracs = list(chain.from_iterable([c.coords for c in self.coeffs]))
            den = math.lcm(*[f.denominator for f in fracs])
            nums = [f.numerator * (den // f.denominator) for f in fracs]
            ints = [0] * (len(self.coeffs) * s - m + 1)
            for k in range(m):
                ints[k::s] = nums[k::m]
            self._ints = (ints, den)
        return self._ints

    def scale(self, c):
        c = self.ctx._coerce(c)
        return Poly(self.ctx, [a * c for a in self.coeffs])

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Poly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv = other.leading().inverse()
        # rem[k] is never read after step k, so the leading term is not subtracted
        terms = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if not b.is_zero()]
        q = [self.ctx.zero] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] * inv
            if c.is_zero():
                continue
            q[k - db] = c
            for j, b in terms:
                rem[k - db + j] = rem[k - db + j] - c * b
        return Poly(self.ctx, q), Poly(self.ctx, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divide_exact(self, other):
        """Exact quotient, or None when the division leaves a remainder."""
        q, r = divmod(self, other)
        return q if r.is_zero() else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    # -- calculus / composition ---------------------------------------------------

    def derivative(self):
        return Poly(self.ctx, [c * i for i, c in enumerate(self.coeffs)][1:])

    def reversed(self, formal_degree=None):
        """x^d * p(1/x) for the chart at infinity."""
        d = self.degree if formal_degree is None else formal_degree
        if d < self.degree:
            raise ValueError("formal degree below actual degree")
        return Poly(self.ctx, list(reversed(self.padded(d))))

    # -- evaluation --------------------------------------------------------------

    def __call__(self, z):
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_homogeneous(self, u, v, formal_degree):
        """sum c_i u^i v^(d-i) for exact projective evaluation."""
        if self.ctx.degree != 1:
            return self._eval_homogeneous_generic(u, v, formal_degree)
        u, v = self.ctx._coerce(u).coords[0], self.ctx._coerce(v).coords[0]
        # with u = a/b and v = c/e the sum is sum n_i X^i Y^(d-i) / (den (be)^d),
        # where X = ae, Y = cb and c_i = n_i / den: Horner on integers
        d = formal_degree
        ints, den = self._integer_vector()
        x = u.numerator * v.denominator
        y = v.numerator * u.denominator
        ypow = [1]
        for _ in range(d):
            ypow.append(ypow[-1] * y)
        acc = 0
        for i in range(min(d, len(ints) - 1), -1, -1):
            acc = acc * x + ints[i] * ypow[d - i]
        return self.ctx.from_rational(
            Fraction(acc, den * (u.denominator * v.denominator) ** d))

    def _eval_homogeneous_generic(self, u, v, formal_degree):
        d = formal_degree
        acc = self.ctx.zero
        up = self.ctx.one
        vps = [self.ctx.one]
        for _ in range(d):
            vps.append(vps[-1] * v)
        for i in range(d + 1):
            c = self.coeff(i)
            if not c.is_zero():
                acc = acc + c * up * vps[d - i]
            if i < d:
                up = up * u
        return acc

    def numeric_coeffs(self):
        """Embedded complex coefficient array (ascending), cached."""
        if self._numeric is None:
            import numpy as np

            self._numeric = np.array(
                [self.ctx.embed(c) for c in self.coeffs], dtype=complex
            )
        return self._numeric

    def eval_numeric(self, z):
        acc = 0j
        for c in reversed(self.numeric_coeffs()):
            acc = acc * z + c
        return acc

    # -- gcd and squarefree structure ----------------------------------------------

    def gcd(self, other):
        """Monic gcd; gcd(p, 0) is monic p."""
        other = self._coerce(other)
        a, b = self, other
        while not b.is_zero():
            r = a % b
            a, b = b, (r.monic() if not r.is_zero() else r)
        return a.monic() if not a.is_zero() else a

    def squarefree_decomposition(self):
        """Yun's algorithm: [(g_i, i)] with self = lc * prod g_i^i, g_i monic."""
        if self.is_zero():
            raise ValueError("squarefree decomposition of zero")
        p = self.monic()
        if p.degree == 0:
            return []
        out = []
        d = p.derivative()
        a = p.gcd(d)
        b = p.divide_exact(a)
        c = d.divide_exact(a)
        dd = c - b.derivative()
        i = 1
        while b.degree > 0:
            a = b.gcd(dd)
            if a.degree > 0:
                out.append((a, i))
            b = b.divide_exact(a)
            c = dd.divide_exact(a)
            dd = c - b.derivative()
            i += 1
        return out

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append("(%s)" % c)
            elif i == 1:
                parts.append("(%s)*z" % c)
            else:
                parts.append("(%s)*z^%d" % (c, i))
        return "Poly(%s)" % " + ".join(parts)


class BiPoly:
    """Polynomial in x, y as a dense matrix indexed by (x-degree, y-degree)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        mat = []
        for row in rows:
            cs = []
            for c in row:
                if isinstance(c, FieldElement):
                    if c.ctx is not ctx:
                        raise FieldError("coefficient from a different field context")
                    cs.append(c)
                else:
                    cs.append(ctx.from_rational(to_fraction(c)))
            mat.append(cs)
        # pad ragged rows, then trim zero fringe
        width = max((len(r) for r in mat), default=0)
        for r in mat:
            r.extend([ctx.zero] * (width - len(r)))
        while mat and all(c.is_zero() for c in mat[-1]):
            mat.pop()
        while mat and all(r[-1].is_zero() for r in mat):
            for r in mat:
                r.pop()
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in mat)

    def is_zero(self):
        return not self.rows

    @property
    def bidegree(self):
        """(max x-degree, max y-degree), (-1, -1) for zero."""
        if not self.rows:
            return (-1, -1)
        return (len(self.rows) - 1, len(self.rows[0]) - 1)

    def coeff(self, i, j):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[0]):
            return self.rows[i][j]
        return self.ctx.zero

    def is_antisymmetric(self):
        return self.rows == tuple(tuple(-c for c in col) for col in zip(*self.rows))

    def _packed(self, n):
        """The Poly sum c_ij z^(i + n j), for n above the x-degree."""
        cs = [self.ctx.zero] * (n * (self.bidegree[1] + 1))
        for i, row in enumerate(self.rows):
            cs[i::n] = row
        return Poly(self.ctx, cs)

    @classmethod
    def _unpacked(cls, p, n):
        return cls(p.ctx, [p.coeffs[i::n] for i in range(n)])

    def __mul__(self, other):
        # n exceeds both x-degrees and the product's, so packing is a ring map
        n = len(self.rows) + len(other.rows)
        return BiPoly._unpacked(self._packed(n) * other._packed(n), n)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.ctx), self.rows))

    def eval_exact(self, x, y):
        return Poly(self.ctx, [Poly(self.ctx, row)(y) for row in self.rows])(x)

    def divide_exact(self, other):
        """Quotient Q with self = other * Q exactly, else None.

        A packed quotient is the packing of Q only while the product
        other * Q keeps its x-degree below n; past that, unpacking folds
        x^n into y (so (y - x^2 y) / (x - y) would give x^2).
        """
        if other.is_zero():
            raise ZeroDivisionError("bivariate division by zero")
        n = max(len(self.rows), len(other.rows))
        q = self._packed(n).divide_exact(other._packed(n))
        if q is None:
            return None
        q = BiPoly._unpacked(q, n)
        return q if q.bidegree[0] + other.bidegree[0] < n else None

    def normalized(self):
        """Scale so the highest (x-degree, y-degree) lexicographic coefficient is 1."""
        if self.is_zero():
            return self
        lead = next(c for c in reversed(self.rows[-1]) if not c.is_zero()).inverse()
        return BiPoly(self.ctx, [[c * lead for c in row] for row in self.rows])

    def __repr__(self):
        return "BiPoly(bidegree=%s)" % (self.bidegree,)


def graph_bipoly(num, den):
    """p(x)q(y) - p(y)q(x): the defining polynomial of {G(x) = G(y)}.

    Its coefficient of x^i y^j is p_i q_j - p_j q_i, an antisymmetric matrix.
    """
    d = max(num.degree, den.degree)
    p, q = num.padded(d), den.padded(d)
    return BiPoly(num.ctx, [[p[i] * q[j] - p[j] * q[i] for j in range(d + 1)]
                            for i in range(d + 1)])
