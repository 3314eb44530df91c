"""Univariate and bivariate polynomials over a configured field.

A Poly over Q(alpha), alpha of degree m, is stored as one integer vector and
one positive denominator (ints, den): the alpha^k coordinate of the z^i
coefficient is ints[i s + k] / den with stride s = 2m - 1, and the s - m
slots between two coefficients are zero (Q is the case m = 1).  The form is
canonical: the last coefficient is nonzero and gcd(den, *ints) = 1, so
equality and hashing compare (ints, den).  Sums, differences, products,
scaling, ``monic``, the derivative, the degree, the leading coefficient and
the reduced coordinates that serialization prints run on it.  A product is
one integer convolution whose alpha-powers are reduced on integers: by
Kronecker substitution, or, when one factor is a constant (its m
coordinates), by m shifted multiples of the other factor's slots, which is
also how ``scale`` multiplies.  FieldElement coefficients are built from the
integer form only when something reads ``coeffs`` (``coeff``, the numeric
embedding, division, gcd, BiPoly unpacking), and are then cached; a Poly built from FieldElements
keeps them.  Division, and so the gcd, is ``fields.poly_divmod``, the
package's one long division, on those coefficients.  Poly has no point
evaluation of its own: ``RationalMap.eval_exact`` composes with a constant,
so exact evaluation is products of constant Polys on the integer form over
every field, and numeric evaluation reads the map's one embedded
coefficient pair (``RationalMap.numeric_pair``).  That pair and
``numeric_coeffs`` import numpy in their bodies, so exact work loads none.

BiPoly stores a dense coefficient matrix indexed by (x-degree, y-degree); its
products and divisions are packed univariate ones, x^i y^j read as
z^(i + n j) with n above every x-degree involved.  All operations are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, zip_longest

from .fields import FieldElement, FieldError, poly_divmod, to_fraction

# A prime for the coprimality test of :meth:`Poly.provably_coprime`.  The test
# can only prove coprimality, so any prime is correct; a large one rarely
# divides a leading coefficient or a resultant, which would force the fallback.
COPRIME_TEST_PRIME = 2**61 - 1


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
    # each slot holds xs[i] + 2^(k-1) >= 0, and the offsets are subtracted once
    half = 1 << (8 * width - 1)
    buf = b"".join([(x + half).to_bytes(width, "little") for x in xs])
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * len(xs), "little")
    return int.from_bytes(buf, "little") - offset


def _coprime_mod(a, b, p):
    """Whether gcd(a, b) = 1 in F_p[z], for integer vectors (ascending) whose
    leading coefficients p does not divide."""
    a = [x % p for x in a]
    b = [x % p for x in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        low = b[:-1]
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] * inv % p
            if c:
                a[k - db:k] = [(x - c * y) % p for x, y in zip(a[k - db:k], low)]
        r = a[:db]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return len(b) == 1


class Poly:
    __slots__ = ("ctx", "_ints", "_den", "_coeffs")

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
        # the lcm of the reduced denominators leaves gcd(den, *ints) = 1
        m = ctx.degree
        fracs = list(chain.from_iterable([c.coords for c in cs]))
        den = math.lcm(*[f.denominator for f in fracs])
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        if m == 1:
            ints = nums
        else:
            s = 2 * m - 1
            ints = [0] * max(len(cs) * s - m + 1, 0)
            for k in range(m):
                ints[k::s] = nums[k::m]
        self.ctx = ctx
        self._ints = ints
        self._den = den
        self._coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, ctx, ints, den):
        """The Poly with integer form (ints, den) for den > 0, made canonical:
        zero coefficients at the top dropped and gcd(den, *ints) divided out."""
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        if n < len(ints):
            # keep every slot of the top nonzero coefficient
            m = ctx.degree
            ints = ints[:(n - 1) // (2 * m - 1) * (2 * m - 1) + m if n else 0]
        if not ints:
            den = 1
        elif den != 1:
            g = math.gcd(den, *ints)
            if g != 1:
                ints = [x // g for x in ints]
                den //= g
        p = cls.__new__(cls)
        p.ctx = ctx
        p._ints = ints
        p._den = den
        p._coeffs = None
        return p

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
    def coeffs(self):
        """Ascending FieldElement coefficients, no trailing zeros; built once."""
        if self._coeffs is None:
            s = 2 * self.ctx.degree - 1
            self._coeffs = tuple(self._element(i) for i in range(0, len(self._ints), s))
        return self._coeffs

    def _element(self, start):
        """The FieldElement with coordinates ints[start:start + m] / den."""
        den = self._den
        return FieldElement(self.ctx, tuple(
            [Fraction(x, den) for x in self._ints[start:start + self.ctx.degree]]))

    def reduced_coords(self):
        """Per coefficient (ascending), its m coordinates as (numerator,
        denominator) pairs in lowest terms, read off the integer form: the
        pairs of the Fractions in ``coeffs``, with none of them built."""
        m, s, den = self.ctx.degree, 2 * self.ctx.degree - 1, self._den
        out = []
        for i in range(0, len(self._ints), s):
            pairs = []
            for x in self._ints[i:i + m]:
                g = math.gcd(x, den)
                pairs.append((x // g, den // g))
            out.append(pairs)
        return out

    @property
    def degree(self):
        m = self.ctx.degree
        return (len(self._ints) + m - 1) // (2 * m - 1) - 1

    def is_zero(self):
        return not self._ints

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        if self._coeffs is not None:
            return self._coeffs[-1]
        return self._element(len(self._ints) - self.ctx.degree)

    def coeff(self, i):
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return self.ctx.zero

    def coeff_poly(self, i):
        """The z^i coefficient as a constant Poly, read off the integer form."""
        m = self.ctx.degree
        start = i * (2 * m - 1)
        return Poly._from_ints(self.ctx, self._ints[start:start + m], self._den)

    def padded(self, n):
        """Coefficient list of length n+1 (ascending)."""
        return [self.coeff(i) for i in range(n + 1)]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise FieldError("mixing polynomials from different field contexts")
            return other
        if isinstance(other, (int, Fraction, FieldElement, str)):
            return Poly(self.ctx, [other])
        return NotImplemented

    def _add_scaled(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        da, db = self._den, other._den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        ints = [fa * x + fb * y for x, y in zip_longest(self._ints, other._ints, fillvalue=0)]
        return Poly._from_ints(self.ctx, ints, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_scaled(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._from_ints(self.ctx, [-x for x in self._ints], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_scaled(other, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        ctx = self.ctx
        a, b = self._ints, other._ints
        # a constant's integer form is its m coordinates: the product with it
        # is a scaling, m shifted multiples of the other factor's slots
        if len(b) <= ctx.degree or len(a) <= ctx.degree:
            if len(a) < len(b):
                a, b = b, a
            conv = [b[0] * x for x in a]
            for k, c in enumerate(b[1:], 1):
                conv.append(0)
                if c:
                    conv[k:] = [y + c * x for y, x in zip(conv[k:], a)]
        else:
            conv = _kronecker_product(a, b)
        den = self._den * other._den
        if ctx.degree == 1:
            return Poly._from_ints(ctx, conv, den)
        # z^i alpha^k sits in slot i s + k, s = 2m - 1, so the integer product
        # holds every z^i alpha^k (k <= 2m - 2) of the product in its own slot
        m, s = ctx.degree, 2 * ctx.degree - 1
        rows, r = ctx._integer_reduction
        # alpha^k = sum_i rows[k - m][i] alpha^i / r for k >= m
        cols = [conv[i::s] if r == 1 else [c * r for c in conv[i::s]] for i in range(m)]
        for k, row in enumerate(rows, m):
            top = conv[k::s]
            cols = [[c + w * t for c, t in zip(col, top)] if w else col
                    for col, w in zip(cols, row)]
        ints = [0] * (len(conv) - m + 1)
        for k, col in enumerate(cols):
            ints[k::s] = col
        return Poly._from_ints(ctx, ints, den * r)

    __rmul__ = __mul__

    def scale(self, c):
        """self times the field element c, the product with a constant Poly."""
        return self * self.ctx._coerce(c)

    def __pow__(self, n):
        # popcount(n) + floor(log2 n) - 1 products: no product with 1, and no
        # squaring past the top bit of n
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if not n:
            return Poly.one(self.ctx)
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = poly_divmod(self.coeffs, other.coeffs)
        return Poly(self.ctx, q), Poly(self.ctx, r)

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
        return self._den == other._den and self._ints == other._ints

    def __hash__(self):
        return hash((id(self.ctx), tuple(self._ints), self._den))

    # -- calculus / composition ---------------------------------------------------

    def derivative(self):
        # slot j holds a coordinate of the z^(j // s) coefficient
        s = 2 * self.ctx.degree - 1
        return Poly._from_ints(
            self.ctx, [x * (j // s) for j, x in enumerate(self._ints)][s:], self._den)

    # -- numeric form -------------------------------------------------------------

    def numeric_coeffs(self):
        """Embedded complex coefficient array (ascending)."""
        import numpy as np

        return np.array([self.ctx.embed(c) for c in self.coeffs], dtype=complex)

    # -- gcd and squarefree structure ----------------------------------------------

    def provably_coprime(self, other):
        """True when a gcd modulo COPRIME_TEST_PRIME proves self and other coprime.

        Over Q, let p divide neither leading coefficient.  A common factor
        of the two can be taken in Z[z] (Gauss's lemma), and its leading
        coefficient divides theirs, so modulo p it keeps its positive degree
        and divides both: a gcd of 1 modulo p is a proof.  False leaves the
        question open (a field other than Q, p dividing a leading
        coefficient, or p dividing the resultant).
        """
        p = COPRIME_TEST_PRIME
        a, b = self._ints, other._ints
        if self.ctx.degree != 1 or not a or not b or not a[-1] % p or not b[-1] % p:
            return False
        return _coprime_mod(a, b, p)

    def gcd(self, other):
        """Monic gcd; gcd(p, 0) is monic p.  A modular proof of coprimality
        (:meth:`provably_coprime`) answers 1 without Euclid's remainders."""
        other = self._coerce(other)
        if self.provably_coprime(other):
            return Poly.one(self.ctx)
        a, b = self, other
        while not b.is_zero():
            r = a % b
            a, b = b, (r.monic() if not r.is_zero() else r)
        return a.monic() if not a.is_zero() else a

    def squarefree_decomposition(self):
        """Yun's algorithm: [(g_i, i)] with self = lc * prod g_i^i, g_i monic.

        When :meth:`provably_coprime` proves p and p' coprime, p is
        squarefree and the answer is [(p, 1)], with no division."""
        if self.is_zero():
            raise ValueError("squarefree decomposition of zero")
        p = self.monic()
        if p.degree == 0:
            return []
        out = []
        d = p.derivative()
        if p.provably_coprime(d):
            return [(p, 1)]
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


def integer_height(*polys):
    """log2 of the l1 norm of the integer vectors of ``polys`` (not all zero)
    cleared over one common denominator, every coordinate counted."""
    den = math.lcm(*[p._den for p in polys])
    return math.log2(sum(sum(map(abs, p._ints)) * (den // p._den) for p in polys))


# A residue in F_p[alpha], alpha of degree m, is packed into one integer with
# coordinate k in slot k of RESIDUE_BITS bits.  Two residues with coordinates
# below 2p add slot by slot, and their integer product holds each coefficient
# of their product in alpha in its own slot: below m (2p)^2 < 2^RESIDUE_BITS
# for p < 2^61 and m <= 8.
RESIDUE_BITS = 128


def residues_mod(polys, p):
    """The integer vectors of ``polys`` cleared over one common denominator,
    modulo p: for each, one packed residue per coefficient (ascending)."""
    den = math.lcm(*[q._den for q in polys])
    m = polys[0].ctx.degree
    out = []
    for q in polys:
        scale = den // q._den
        r = [x * scale % p for x in q._ints]
        # over Q a residue is its one coordinate
        out.append(r if m == 1 else [sum(r[i + k] << (RESIDUE_BITS * k) for k in range(m))
                                     for i in range(0, len(r), 2 * m - 1)])
    return out


def residue_product(ctx, p):
    """The product of packed residues in F_p[alpha], reduced modulo p.

    With p in no denominator of the minimal polynomial, reduction modulo p
    is a ring map onto F_p[alpha] from the elements of Q(alpha) whose
    coordinates have no p in their denominators; the product reduces
    alpha^m .. alpha^(2m-2) with the integer alpha-reduction.  None when p
    divides a denominator of the minimal polynomial.
    """
    rows, r = ctx._integer_reduction
    if r % p == 0:
        return None
    m = ctx.degree
    if m == 1:
        return lambda a, b: a * b % p
    inv = pow(r, -1, p)
    rows = [[c * inv % p for c in row] for row in rows]
    mask = (1 << RESIDUE_BITS) - 1

    def mul(a, b):
        c = a * b
        conv = [(c >> (RESIDUE_BITS * k)) & mask for k in range(2 * m - 1)]
        out = conv[:m]
        for t, row in zip(conv[m:], rows):
            out = [o + t * w for o, w in zip(out, row)]
        return sum((o % p) << (RESIDUE_BITS * k) for k, o in enumerate(out))

    return mul


def product_growth(ctx):
    """log2 K for the K >= 1 with l1(a b) <= K l1(a) l1(b) for the integer
    vectors of any two Polys over ``ctx``: K = max(r, the l1 norm of each row
    of the integer alpha-reduction), so K = 1 over Q."""
    rows, r = ctx._integer_reduction
    return math.log2(max([r] + [sum(map(abs, row)) for row in rows]))


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
