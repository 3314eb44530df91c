"""Periodic points of power maps z -> z^d.

On the unit circle the periodic points of z^d are the roots of unity
e^{2 pi i a/b} with gcd(b, d) = 1, in which case the period is the
multiplicative order of d modulo b; off the circle only 0 and infinity
are periodic.  Two power maps share their full periodic-point set exactly
when their degrees have the same radical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def radical(d):
    """Product of the distinct primes dividing d."""
    if d < 2:
        raise ValueError("radical is defined for integers >= 2 here")
    import sympy  # here, not at module level: importing it takes about 0.4 s

    out = 1
    for p in sympy.factorint(d):
        out *= p
    return out


def same_periodic_points_powermaps(df, dg):
    """Per(z^df) == Per(z^dg), decided by the radical criterion without factoring.

    rad df divides rad dg exactly when df divides dg^k for some k at least
    every prime exponent of df, and each such exponent is below
    df.bit_length().
    """
    if df < 2 or dg < 2:
        raise ValueError("power-map degrees must be >= 2")
    return pow(dg, df.bit_length(), df) == 0 and pow(df, dg.bit_length(), dg) == 0


@dataclass(frozen=True)
class RootOfUnity:
    """e^{2 pi i a/b} in lowest terms with 0 <= a < b."""

    a: int
    b: int

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("denominator must be positive")
        if not (0 <= self.a < self.b):
            raise ValueError("numerator must satisfy 0 <= a < b")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("a/b must be in lowest terms")

    @classmethod
    def reduced(cls, a, b):
        if b < 1:
            raise ValueError("denominator must be positive")
        a %= b
        g = math.gcd(a, b)
        return cls(a // g, b // g)


def is_periodic(z, d):
    """Whether the root of unity z is periodic (not just preperiodic) for z^d."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    return math.gcd(z.b, d) == 1


def period(z, d):
    """Exact period of z under z^d, or None when z is not periodic.

    z^(d^n) = z needs b | d^n - 1, so the period is the multiplicative
    order of d modulo b.
    """
    if not is_periodic(z, d):
        return None
    if z.b == 1:
        return 1  # z = 1 is fixed
    import sympy

    return int(sympy.n_order(d, z.b))

