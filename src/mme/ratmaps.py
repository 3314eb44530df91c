"""Rational self-maps of P^1; a Moebius transformation is one of degree 1.

Maps are stored as coprime numerator/denominator polynomials over the
configured exact field, normalized so the leading denominator coefficient
equals 1; equality is then a coefficient-wise test.
Composition and exact evaluation share one homogeneous kernel: f o g is
f's homogenized pair at (num g : den g), and f(z) is f composed with the
constant map z, at (z : 1) or (1 : 0) for INF.  The kernel splits the
d + 1 terms of the homogeneous sum at powers of two, so it builds O(log d)
powers of num g and den g, each by squaring, and no others; its leaves are
f's coefficients, whose products are scalings.
The numeric form of a map is one cached (2, d + 1) array, ``numeric_pair``:
num and den embedded and padded to d + 1 coefficients.  Read forward it
gives the pair in z; read reversed it gives the pair in the chart w = 1/z,
where numeric evaluation works away from the unit disc, so infinity is never
represented by a large sentinel.  Preimage solves read the same array.
numpy and :mod:`mme.numeric` are imported only inside the numeric methods,
``critical_data`` and its cross-check, so exact work on maps loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .base import INF, ConsistencyError, RootFindingError, is_inf
from .fields import FieldError
from .polys import Poly, integer_height, product_growth

DEFAULT_DEGREE_BUDGET = 4096
# iterate refuses f^n when its height bound (RationalMap.iterate_height_bound,
# log2 of the l1 norm of its integer coefficient pair) exceeds this many bits.
# A 40-digit degree-4 map is bounded by about 11.5k bits at n = 4 (1.4 s of
# work in process on a 2-vCPU VM) and 46k bits at n = 5 (about 100 s more);
# z^2 - 1 by 1023 bits at n = 10.
ITERATE_HEIGHT_BUDGET = 2**15
# chordal distance below which critical_data merges two critical values
VALUE_TOL = 1e-7


class MapError(ValueError):
    pass


class SizeBudgetError(MapError):
    pass


class RationalMap:
    __slots__ = ("ctx", "num", "den", "degree", "_numeric")

    def __init__(self, num, den):
        if num.ctx is not den.ctx:
            raise FieldError("numerator and denominator from different contexts")
        if den.is_zero():
            raise MapError("denominator is the zero polynomial")
        if num.is_zero():
            raise MapError("numerator is the zero polynomial (constant map)")
        g = num.gcd(den)
        if g.degree > 0:
            num = num.divide_exact(g)
            den = den.divide_exact(g)
        if max(num.degree, den.degree) < 1:
            raise MapError("constant map is not a rational self-map of degree >= 1")
        self._set_lowest_terms(num, den)

    @classmethod
    def _coprime(cls, num, den):
        """The map num/den for coprime num, den, without a gcd."""
        f = cls.__new__(cls)
        f._set_lowest_terms(num, den)
        return f

    def _set_lowest_terms(self, num, den):
        # canonical form: monic denominator
        inv = den.leading().inverse()
        self.ctx = num.ctx
        self.num = num.scale(inv)
        self.den = den.scale(inv)
        self.degree = max(num.degree, den.degree)
        self._numeric = None

    @classmethod
    def polynomial(cls, poly):
        return cls(poly, Poly.one(poly.ctx))

    @classmethod
    def moebius(cls, a, b, c, d):
        """z -> (az + b)/(cz + d); ad - bc != 0 makes the pair coprime."""
        if (a * d - b * c).is_zero():
            raise MapError("Moebius transformation must have nonzero determinant")
        return cls._coprime(Poly(a.ctx, [b, a]), Poly(a.ctx, [d, c]))

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        if self.ctx is not other.ctx:
            raise FieldError("comparing maps from different field contexts")
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RationalMap(%r / %r)" % (self.num, self.den)

    # -- algebra -----------------------------------------------------------------

    def compose(self, other):
        """self(other(z)): exact, degree multiplicative."""
        if not isinstance(other, RationalMap):
            raise TypeError("compose expects a RationalMap")
        if self.ctx is not other.ctx:
            raise FieldError("composing maps from different field contexts")
        num, den = self._homogeneous(other.num, other.den)
        # No gcd: p/q and u/v are in lowest terms, so the homogenized P, Q have
        # no common zero on P^1.  At a common zero z of num and den, (u(z), v(z))
        # would be a common zero of P and Q, so u(z) = v(z) = 0: impossible.
        if max(num.degree, den.degree) != self.degree * other.degree:
            raise ConsistencyError(
                "composite of degrees %d and %d has degree %d"
                % (self.degree, other.degree, max(num.degree, den.degree)))
        return RationalMap._coprime(num, den)

    def _homogeneous(self, u, v):
        """(sum a_i u^i v^(d-i), sum b_i u^i v^(d-i)) for Polys u, v, where
        a_i and b_i are the coefficients of num and den and d is the degree.

        Divide and conquer on the d + 1 terms.  A run of n terms from a_lo is
        H(lo, n) = sum_(i < n) a_(lo+i) u^i v^(n-1-i), and with k the largest
        power of two below n, H(lo, n) = H(lo, k) v^(n-k) + u^k H(lo+k, n-k).
        A leaf H(lo, 1) = a_lo is a constant Poly read off the integer form,
        so its products are scalings.  The only powers built are u^k and v^k
        for powers of two k, each by squaring, and v^t for the tails t of
        d + 1 (what is left of d + 1 after its top bits); num and den share
        them.  Each of the log2 d levels of the split multiplies Polys whose
        sizes add up to about the composite's.
        """
        upow, vpow = {1: u}, {1: v}

        def power(table, n):
            if n not in table:
                k = 1 << (n.bit_length() - 1)
                if k == n:
                    half = power(table, n // 2)
                    table[n] = half * half
                else:
                    table[n] = power(table, k) * power(table, n - k)
            return table[n]

        def run(p, lo, n):
            if n == 1:
                return p.coeff_poly(lo)
            k = 1 << ((n - 1).bit_length() - 1)
            return run(p, lo, k) * power(vpow, n - k) + power(upow, k) * run(p, lo + k, n - k)

        n = self.degree + 1
        return run(self.num, 0, n), run(self.den, 0, n)

    def iterate_height_bound(self, n):
        """A bound on the height of f^n, in bits, from the integer form of f.

        The height of a map is log2 of the l1 norm of its integer coefficient
        pair (num and den cleared over one denominator).  For f of degree d,
        h(f o g) <= h(f) + d (h(g) + log2 K) for the composite as compose
        sums it, with K = 1 over Q (:func:`polys.product_growth`).  Over Q,
        making the denominator monic only divides that pair by an integer,
        so the bound holds for every iterate; over Q(alpha) it is an estimate.
        The bound grows with n, so once it passes ITERATE_HEIGHT_BUDGET it is
        returned as it stands, below the bound of f^n.
        """
        h = integer_height(self.num, self.den)
        grow = product_growth(self.ctx)
        bound = h
        for _ in range(n - 1):
            if bound > ITERATE_HEIGHT_BUDGET:
                break
            bound = h + self.degree * (bound + grow)
        return bound

    def compose_height_bound(self, other):
        """The bound of iterate_height_bound for one composite: h(self o other)
        <= h(self) + deg self (h(other) + log2 K), in bits."""
        return (integer_height(self.num, self.den)
                + self.degree * (integer_height(other.num, other.den) + product_growth(self.ctx)))

    def iterate(self, n, budget=DEFAULT_DEGREE_BUDGET, name="f"):
        """f^n; SizeBudgetError before any composing when its degree exceeds
        ``budget`` or its height bound exceeds ITERATE_HEIGHT_BUDGET.  The
        error calls the map ``name``."""
        if n < 1:
            raise MapError("iterate exponent must be >= 1")
        d = self.degree
        # d^n > budget exactly when it holds for n capped at the budget's
        # bit length, since 2^k > budget there: d^n is never built for huge n
        if d ** min(n, budget.bit_length()) > budget:
            raise SizeBudgetError(
                "degree %d^%d exceeds the composite-degree budget %d" % (d, n, budget))
        if self.iterate_height_bound(n) > ITERATE_HEIGHT_BUDGET:
            raise SizeBudgetError(
                "%s^%d may have coefficients of more than %d bits, the iterate budget"
                % (name, n, ITERATE_HEIGHT_BUDGET))
        out = self
        for _ in range(n - 1):
            out = self.compose(out)
        return out

    def wronskian(self):
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    # -- exact evaluation -----------------------------------------------------------

    def eval_exact(self, z):
        """f(z) exactly, for a field element z or INF; an element or INF.

        f(z) is f composed with the constant map z: the kernel of compose
        runs at (z : 1) scaled by the lcm of z's denominators, or at (1 : 0)
        for INF."""
        if is_inf(z):
            u, v = Poly.one(self.ctx), Poly.zero(self.ctx)
        else:
            v = Poly.constant(self.ctx, math.lcm(*[c.denominator for c in z.coords]))
            u = v.scale(z)
        nu, nv = (p.coeff(0) for p in self._homogeneous(u, v))
        if nv.is_zero():
            return INF
        return nu / nv

    # -- numeric evaluation -----------------------------------------------------------

    def numeric_pair(self):
        """num and den embedded and padded to d + 1 coefficients, ascending in
        z, as one read-only (2, d + 1) array built once; reversed, its rows are
        the pair in the chart w = 1/z, z^d num(1/z) and z^d den(1/z)."""
        if self._numeric is None:
            import numpy as np

            pair = np.array([[self.ctx.embed(c) for c in p.padded(self.degree)]
                             for p in (self.num, self.den)], dtype=complex)
            pair.flags.writeable = False
            self._numeric = pair
        return self._numeric

    def eval_numeric(self, z):
        """Projective numeric evaluation; |z| > 1 is computed in the chart 1/z."""
        pair = self.numeric_pair()
        if is_inf(z) or abs(z) > 1.0:
            # ascending in z, the pair is the pair in w = 1/z, highest power first
            x, rows = (0j if is_inf(z) else 1.0 / z), pair
        else:
            x, rows = z, pair[:, ::-1]
        # Horner on scalars (np.polyval rounds differently)
        n, d = (reduce(lambda acc, c: acc * x + c, row, 0j) for row in rows)
        scale = max(abs(n), abs(d))
        if scale < 1e-12:
            return self._eval_mpmath(z)
        if abs(d) <= 1e-15 * abs(n):
            return INF
        return n / d

    def _eval_mpmath(self, z):
        # near-total cancellation: escalate precision (cannot be a true 0/0
        # because num, den are coprime); only INF is taken in the chart 1/z
        import mpmath

        pair = self.numeric_pair()
        with mpmath.workdps(60):
            if is_inf(z):
                w, rows = mpmath.mpc(0), pair
            else:
                w, rows = mpmath.mpc(z), pair[:, ::-1]
            n, d = (mpmath.polyval([mpmath.mpc(c) for c in row], w) for row in rows)
            if abs(d) == 0:
                return INF
            return complex(n / d)

    def preimages(self, w):
        """The d preimages of a numeric point w (counted with multiplicity),
        as ``projective_roots`` gives them for ``preimage_row(w)``."""
        from .numeric import projective_roots

        return projective_roots(self.preimage_row(w), self.degree)

    def preimage_row(self, w):
        """The d + 1 ascending coefficients whose projective roots are the
        preimages of w, a Python complex or INF: num/s - (w/s) den with
        s = max(1, |w|), where w/s rounds as Python's division does and
        numpy's would not, or den at w = INF."""
        nc, dc = self.numeric_pair()
        if is_inf(w):
            return dc
        scale = max(1.0, abs(w))
        return nc / scale - (w / scale) * dc


def maps_equal(f, g):
    return f == g


# -- critical data -------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalData:
    """Critical points/values of a map with exact multiplicities.

    points: [(point, multiplicity)] where point is complex or INF and
        multiplicity is the exact order in the ramification divisor, so
        the local degree of the map there is multiplicity + 1.
    value_groups: per deduplicated critical value, the list of critical
        points (with multiplicity) mapping there.
    """

    points: list
    value_groups: list


def critical_data(f):
    """Critical points with exact multiplicities, grouped by critical value.

    Exact route: the Wronskian's square-free decomposition gives the
    multiplicity structure; each square-free factor has well-conditioned
    simple roots.  The infinity chart contributes 2d-2 - deg(W) extra
    multiplicity.  A direct clustering of the plain numeric roots of W
    cross-checks the multiset.
    """
    from .numeric import certified_roots, chordal, point_arrays

    if f.degree < 2:
        raise MapError("critical data requires degree >= 2")
    d = f.degree
    w = f.wronskian()
    total = 2 * d - 2
    points = []
    if not w.is_zero():
        for factor, mult in w.squarefree_decomposition():
            roots = certified_roots(factor.numeric_coeffs())
            for r in roots:
                points.append((complex(r), mult))
        inf_mult = total - w.degree
    else:
        raise MapError("degenerate map: identically zero Wronskian")
    if inf_mult > 0:
        points.append((INF, inf_mult))
    assert sum(m for _, m in points) == total, "Riemann-Hurwitz count violated"
    # cross-check: cluster the raw numeric roots of the full Wronskian
    _crosscheck_multiplicities(w, points, total)
    points.sort(key=lambda pm: (is_inf(pm[0]), pm[0].real if not is_inf(pm[0]) else 0.0,
                                pm[0].imag if not is_inf(pm[0]) else 0.0))
    # critical values, each in the first group within VALUE_TOL of its first value
    values = [f.eval_numeric(p) for p, _m in points]
    near = chordal(*point_arrays(values), *point_arrays(values)) < VALUE_TOL
    firsts, value_groups = [], []
    for i, pm in enumerate(points):
        for k, first in enumerate(firsts):
            if near[first, i]:
                value_groups[k][1].append(pm)
                break
        else:
            firsts.append(i)
            value_groups.append((values[i], [pm]))
    return CriticalData(points=points, value_groups=value_groups)


def _crosscheck_multiplicities(w, points, total):
    """Cluster raw numeric Wronskian roots; multiset must match the exact one.

    A mismatch is a numeric miss on a valid map, so it raises RootFindingError."""
    import numpy as np

    from .numeric import chordal, point_arrays

    finite = [(p, m) for p, m in points if not is_inf(p)]
    if not finite:
        return
    raw = np.roots(w.numeric_coeffs()[::-1])
    # each raw root counts for its nearest exact point, the first on ties
    dist = chordal(*point_arrays([p for p, _m in finite]), *point_arrays(raw))
    got = sorted(np.bincount(dist.argmin(axis=0), minlength=len(finite)).tolist())
    want = sorted(m for _, m in finite)
    if got != want:
        raise RootFindingError(
            "multiplicity cross-check failed: clustering %s vs exact %s" % (got, want)
        )
