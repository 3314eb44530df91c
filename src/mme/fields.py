"""Exact arithmetic over Q and simple algebraic extensions Q(alpha).

A FieldContext fixes the minimal polynomial of alpha once per run; every
FieldElement carries a reference to its context and refuses to mix with
elements of another one.  Elements are immutable coordinate vectors in
the power basis 1, alpha, ..., alpha^(m-1) with reduced Fraction entries,
so equality is exact coefficient comparison.

:func:`poly_divmod` is the package's one long division.  It divides
coefficient lists of Fractions, for the irreducibility test of a minimal
polynomial and for inverses by extended Euclid, and of FieldElements, for
``Poly`` division and gcd.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

MAX_EXTENSION_DEGREE = 8
# the most digits of an integer in a minimal polynomial's coefficients: the
# irreducibility test takes time that grows about as the cube of the digits,
# and at degree 8 it took up to 1.0 s at 150 digits, 2.6 s at 200 and 3.6 s
# at 300 (z^8 + N z^6 + 1 and z^8 + N z^7 + 1, one CPU of a 2-vCPU VM)
MINPOLY_DIGIT_BUDGET = 150


class FieldError(ValueError):
    """Invalid field configuration or cross-context arithmetic."""


# an integer or a ratio of integers, as Fraction reads them
_INTEGER_RATIO = re.compile(r"\s*(?P<num>[-+]?\d+)(?:/(?P<den>\d+))?\s*")


def _int_from_text(text):
    """int(text) of any length: int() refuses more digits than Python's
    limit (4300 by default), Decimal does not, but costs more below it."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def to_fraction(x, max_digits=None) -> Fraction:
    """x as a Fraction.  A string is read as Fraction reads it, within
    Python's limit on the digits of an integer string; a "num" or
    "num/den" string, given ``max_digits``, is read up to that many digits
    in each integer instead."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        ratio = max_digits is not None and _INTEGER_RATIO.fullmatch(x)
        if ratio:
            num, den = ratio["num"], ratio["den"] or "1"
            if max(len(num.lstrip("+-")), len(den)) > max_digits:
                raise ValueError("an integer of more than %d digits" % max_digits)
            return Fraction(_int_from_text(num), _int_from_text(den))
        # int() refuses more digits than Python's limit at once, but for an
        # exponent, as in "1e100000000", Fraction would build 10^exp in full
        exp = x.lower().partition("e")[2].strip().lstrip("+-")
        limit = sys.get_int_max_str_digits()
        if exp.isdigit() and limit and int(exp) > limit:
            raise ValueError("%r has more than %d digits" % (x, limit))
        return Fraction(x)
    raise TypeError("cannot interpret %r as a rational number" % (x,))


def poly_divmod(a, b):
    """Quotient and remainder of ascending coefficient lists over a field,
    of Fractions or of FieldElements, for b with a nonzero last entry; the
    remainder has no zero entries at the top.

    Each step subtracts a multiple of b's nonzero lower entries only: the
    entry it divides out is never read again, so it is not updated.
    """
    rem = list(a)
    db = len(b) - 1
    inv = 1 / b[-1]
    terms = [(j, c) for j, c in enumerate(b[:-1]) if c]
    q = [None] * max(len(rem) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        c = q[k - db] = rem[k] * inv
        if c:
            for j, bj in terms:
                rem[k - db + j] = rem[k - db + j] - c * bj
    r = rem[:db]
    while r and not r[-1]:
        r.pop()
    return q, r


def _is_irreducible_over_q(coeffs) -> bool:
    """Whether the polynomial with these Fraction coefficients (ascending,
    degree >= 2) is irreducible over Q; exact, meant for degree <= 8.

    Cleared to a primitive f in Z[z] with leading coefficient a > 0, f is
    reducible when gcd(f, f') is nonconstant.  Otherwise its roots are
    simple, and f has a factor of degree k <= n/2 exactly when some set S
    of k roots makes a * prod_{i in S} (z - z_i) a polynomial in Z[z]
    (by Gauss's lemma it is lc(H) * G for f = G * H in Z[z]) that divides
    f.  :func:`_factor_search` decides that for every S from certified
    root disks, at a precision that doubles until every S is decided.
    """
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (lcm // c.denominator) for c in coeffs]
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    f = [c // content for c in ints]  # a = f[-1] > 0
    r0 = [Fraction(c) for c in f]
    r1 = [Fraction(k * c) for k, c in enumerate(f)][1:]
    while r1:
        r0, r1 = r1, poly_divmod(r0, r1)[1]
    if len(r0) > 1:
        return False
    # polyroots stops at an absolute tolerance of 2^-prec, so prec must
    # exceed the bit size of the largest root, which the coefficients bound
    prec = 53 + max(c.bit_length() for c in f)
    while True:
        verdict = _factor_search(f, prec)
        if verdict is not None:
            return verdict
        prec *= 2


def _times_power_of_two(y, e):
    """The integer y * 2^e, for an mpf y that is a multiple of 2^-e."""
    man, exp = y.man_exp  # man is |mantissa|
    return (-1 if y < 0 else 1) * (man << (exp + e))


def _factor_search(f, prec):
    """For squarefree f in Z[z] (ascending, degree n >= 2): False when a
    factor of degree <= n/2 divides f exactly, True when the root disks
    exclude every such factor, None when ``prec`` bits do not decide.

    The disks are Braess-Hadeler inclusions.  With distinct x_1..x_n and
    W_i = f(x_i) / (a prod_{j != i} (x_i - x_j)), the roots of f are the
    eigenvalues of diag(x) - W 1^T, whose Gerschgorin row disks lie in
    |z - x_i| <= n |W_i|; when these are pairwise disjoint each holds
    exactly one root.  An mpf is an exact dyadic, so everything below is
    exact integer arithmetic in units of 2^-e, with each radius rounded
    up and |u + iv| bounded by |u| + |v| above and max(|u|, |v|) below.
    """
    import mpmath
    from mpmath.libmp import NoConvergence

    n, a = len(f) - 1, f[-1]
    try:
        with mpmath.mp.workprec(prec):
            roots = mpmath.polyroots(f[::-1], maxsteps=prec, extraprec=prec)
    except NoConvergence:
        return None
    parts = [y for x in roots for y in (x.real, x.imag)]
    e = max([prec] + [-y.man_exp[1] for y in parts])
    coords = [_times_power_of_two(y, e) for y in parts]
    xs = list(zip(coords[::2], coords[1::2]))  # the roots times 2^e
    spow = [1 << (e * j) for j in range(n + 1)]
    radii = []
    for i, (xr, xi) in enumerate(xs):
        # 2^(e n) f(x_i) by Horner, and 2^(e (n-1)) |prod (x_i - x_j)| from below
        vr = vi = 0
        for j in range(n, -1, -1):
            vr, vi = vr * xr - vi * xi + f[j] * spow[n - j], vr * xi + vi * xr
        den = a
        for j, (yr, yi) in enumerate(xs):
            if j != i:
                den *= max(abs(xr - yr), abs(xi - yi))
        if not den:
            return None
        radii.append(-(-n * (abs(vr) + abs(vi)) // den))
    for i in range(n):
        for j in range(i):
            dr, di = xs[i][0] - xs[j][0], xs[i][1] - xs[j][1]
            if dr * dr + di * di <= (radii[i] + radii[j]) ** 2:
                return None
    decided = True
    for k in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), k):
            # disks (re, im, radius) around the coefficients of
            # prod_{i in S} (u - 2^e z_i), ascending in u = 2^e z
            poly = [(1, 0, 0)]
            for i in subset:
                (xr, xi), r = xs[i], radii[i]
                shifted = [(0, 0, 0)] + poly
                for m, (cr, ci, cR) in enumerate(poly):
                    sr, si, sR = shifted[m]
                    shifted[m] = (sr - cr * xr + ci * xi, si - cr * xi - ci * xr,
                                  sR + (abs(cr) + abs(ci)) * r + (abs(xr) + abs(xi)) * cR + cR * r)
                poly = shifted
            # the coefficient of z^m in a * prod (z - z_i) is a * c_m / 2^(e (k-m))
            candidate = []
            for m, (cr, ci, cR) in enumerate(poly):
                t = spow[k - m]
                q = (2 * a * cr + t) // (2 * t)
                if (a * cr - q * t) ** 2 + (a * ci) ** 2 > (a * cR) ** 2:
                    break  # no integer in this disk: S is not a factor
                candidate.append(q)
            else:
                if any(2 * a * cR >= spow[k - m] for m, (_, _, cR) in enumerate(poly)):
                    decided = False  # a disk may hold two integers
                elif not poly_divmod([Fraction(c) for c in f], [Fraction(c) for c in candidate])[1]:
                    return False
    return True if decided else None


class FieldContext:
    """The field Q(alpha) where alpha has the given monic minimal polynomial.

    Use :meth:`rationals` for plain Q.  User-supplied minimal polynomials
    must be monic, irreducible, and of degree 2..8; degree-1 input is
    rejected as degenerate.
    """

    _rationals = None

    def __init__(self, minpoly, _allow_linear=False):
        coeffs = [to_fraction(c) for c in minpoly]
        sizes = [max(abs(c.numerator), c.denominator) for c in coeffs]
        if max(sizes, default=0) >= 10**MINPOLY_DIGIT_BUDGET:
            raise FieldError("minimal polynomial coefficients have at most %d digits"
                             % MINPOLY_DIGIT_BUDGET)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must be non-constant")
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        degree = len(coeffs) - 1
        if degree == 1 and not _allow_linear:
            raise FieldError(
                "degree-1 minimal polynomial is degenerate; "
                "use FieldContext.rationals() for plain Q"
            )
        if degree > MAX_EXTENSION_DEGREE:
            raise FieldError("extension degree capped at %d" % MAX_EXTENSION_DEGREE)
        if degree > 1 and not _is_irreducible_over_q(coeffs):
            raise FieldError(
                "minimal polynomial %s is reducible over Q; the generator "
                "would not define a field" % (coeffs,)
            )
        self.minpoly = tuple(coeffs)
        self.degree = degree
        # alpha^k for k = degree .. 2*degree-2, reduced to the power basis
        table = {degree: [-c for c in coeffs[:-1]]}
        for k in range(degree + 1, 2 * degree - 1):
            shifted = [Fraction(0)] + table[k - 1]
            top = shifted.pop()  # coefficient of alpha^degree
            if top:
                base = table[degree]
                shifted = [shifted[i] + top * base[i] for i in range(degree)]
            table[k] = shifted
        self._reduction = table
        # the same table over one common denominator r: rows[k - degree][i] / r
        # is the coordinate of alpha^i in alpha^k (Poly products reduce with it)
        rows = [table[k] for k in range(degree, 2 * degree - 1)]
        r = math.lcm(*[c.denominator for row in rows for c in row])
        self._integer_reduction = (
            [[c.numerator * (r // c.denominator) for c in row] for row in rows], r)
        self._embedding = None

    @classmethod
    def rationals(cls):
        if cls._rationals is None:
            cls._rationals = cls([0, 1], _allow_linear=True)
        return cls._rationals

    # -- element constructors ------------------------------------------------

    def element(self, coords):
        coords = [to_fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise FieldError("coordinate vector longer than extension degree")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return FieldElement(self, tuple(coords))

    def from_rational(self, x):
        return self.element([to_fraction(x)])

    def gen(self):
        if self.degree == 1:
            return self.from_rational(-self.minpoly[0])
        return self.element([0, 1])

    @property
    def zero(self):
        return self.from_rational(0)

    @property
    def one(self):
        return self.from_rational(1)

    # -- numerics --------------------------------------------------------------

    def embedding(self) -> complex:
        """A fixed complex root of the minimal polynomial.

        The root with the largest imaginary part (ties broken by real part)
        is chosen, so t^2+1 -> i and t^2+t+1 -> (-1+sqrt(3)i)/2.
        """
        if self._embedding is None:
            if self.degree == 1:
                self._embedding = complex(-self.minpoly[0])
            else:
                import numpy as np

                roots = np.roots([float(c) for c in reversed(self.minpoly)])
                roots = sorted(roots, key=lambda r: (-r.imag, -r.real))
                self._embedding = complex(roots[0])
        return self._embedding

    def embed(self, elt) -> complex:
        a = self.embedding()
        acc = 0j
        for c in reversed(elt.coords):
            acc = acc * a + complex(c)
        return acc

    # -- internals --------------------------------------------------------------

    def _reduce(self, conv):
        m = self.degree
        out = list(conv[:m]) + [Fraction(0)] * max(0, m - len(conv))
        for k in range(m, len(conv)):
            c = conv[k]
            if c:
                row = self._reduction[k]
                for i in range(m):
                    out[i] += c * row[i]
        return tuple(out)

    def _coerce(self, x):
        if isinstance(x, FieldElement):
            if x.ctx is not self:
                raise FieldError("mixing elements from different field contexts")
            return x
        if isinstance(x, (int, Fraction, str)):
            return self.from_rational(x)
        return NotImplemented

    def __repr__(self):
        if self.degree == 1:
            return "FieldContext(Q)"
        return "FieldContext(minpoly=%s)" % (list(self.minpoly),)

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)


class FieldElement:
    __slots__ = ("ctx", "coords")

    def __init__(self, ctx, coords):
        self.ctx = ctx
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element %r is not rational" % (self,))
        return self.coords[0]

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self.ctx._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self.ctx._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        other = self.ctx._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coords, other.coords
        m = self.ctx.degree
        conv = [Fraction(0)] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return FieldElement(self.ctx, self.ctx._reduce(conv))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        m = self.ctx.degree
        if m == 1 or self.is_rational():
            inv = 1 / self.coords[0]
            return self.ctx.from_rational(inv)
        # extended Euclid in Q[t] against the minimal polynomial
        f = list(self.ctx.minpoly)
        g = list(self.coords)
        while g and g[-1] == 0:
            g.pop()
        r0, r1 = f, g
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = poly_divmod(r0, r1)
            # s_new = s0 - q*s1
            s_new = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s_new[i + j] -= qi * sj
            while s_new and s_new[-1] == 0:
                s_new.pop()
            r0, r1 = r1, r
            s0, s1 = s1, s_new
        # r0 is the gcd; a nonzero constant since minpoly is irreducible
        if len(r0) != 1:
            raise FieldError("minimal polynomial not irreducible (internal)")
        c = 1 / r0[0]
        coords = [ci * c for ci in s0]
        return self.ctx.element(coords)

    def __truediv__(self, other):
        other = self.ctx._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        # poly_divmod's 1 / b[-1] is the inverse itself, with no product
        inv = self.inverse()
        return inv if other == 1 else inv * other

    def __eq__(self, other):
        other = self.ctx._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((id(self.ctx), self.coords))

    def __complex__(self):
        return self.ctx.embed(self)

    def __repr__(self):
        if self.is_rational():
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*a" % c)
            else:
                parts.append("%s*a^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


def field_configure(minpoly) -> FieldContext:
    """Configure the coefficient field from a monic minimal polynomial.

    ``minpoly`` is an ascending coefficient sequence over Q.  Rejects
    non-monic, degenerate (degree < 2), and reducible inputs with an
    explanation; see :class:`FieldContext`.

    Contexts are cached by minimal polynomial, so two configurations of
    the same field share elements freely.
    """
    key = tuple(to_fraction(c) for c in minpoly)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = FieldContext(minpoly)
        _CONTEXT_CACHE[key] = ctx
    return ctx


_CONTEXT_CACHE = {}
