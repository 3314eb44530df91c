"""Backward-orbit clouds of maximal-entropy measures, and the Julia-set
rasters drawn from them.  No verdict rests on samples: the exact verdicts on
measures, ``same_measure_test`` and ``sigma_invariance_check``, are in
:mod:`mme.identities`, which loads neither this module nor numpy.

Preimage sets of a point equidistribute toward the measure of maximal
entropy, so independent random backward orbits (uniform preimage choice,
short burn-in discarded) give a point cloud approximating it; ``render``
draws its rasters from them.  That holds for every point outside the
exceptional set E(f) (Lyubich 1983), so an orbit is dropped when it lands
exactly on a fixed point of E(f) (``_exceptional_points``).  The orbits of
a cloud advance together as one (z, inf) pair, an orbit that fails drops
only itself, and the cloud is that pair: ``julia_raster`` bins its finite
points as they are.  Count, depth and raster size have budgets
(COUNT_BUDGET, DEPTH_BUDGET, PIXEL_BUDGET), checked before any draw or
allocation; past them the input is refused (MapError, exit 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import INF
from .numeric import certified_roots, named_rng, point_arrays, projective_roots_batch
from .polys import Poly
from .ratmaps import MapError

BURN_IN = 10
# budgets on the sampled work of a raster, checked before any draw or
# allocation (exit 2)
COUNT_BUDGET = 10**5
DEPTH_BUDGET = 1000  # preimage choices drawn, and root solves made, per orbit
PIXEL_BUDGET = 2**22  # width * height of a raster: 2048 x 2048


@dataclass
class MeasureCloud:
    """The points of a cloud as one (z, inf) pair of 1-d arrays."""

    z: np.ndarray
    inf: np.ndarray

    def __len__(self):
        return len(self.z)


def _exceptional_points(f):
    """The fixed points of the Fatou exceptional set E(f), the finite ones
    first, then INF: the points that are their own full preimage, where f
    has local degree d.  The finite ones are the roots of gcd(A, num - z
    den), A the Wronskian's squarefree factor of multiplicity d - 1; INF is
    one exactly when f is a polynomial.  A 2-cycle of E(f), as {0, INF} of
    1/z^2, is left out.  Whether f is an exceptional map (a conjugate of
    z^d, of a Chebyshev polynomial, or a Lattes map) is not decided here."""
    d = f.degree
    finite = []
    for factor, mult in f.wronskian().squarefree_decomposition():
        if mult == d - 1:
            fixed = factor.gcd(f.num - Poly.x(f.ctx) * f.den)
            finite = list(certified_roots(fixed.numeric_coeffs()))
    return finite + ([INF] if f.den.degree == 0 else [])


def _check_orbits(f, depth):
    if f.degree < 2:
        raise MapError("sampling requires degree >= 2")
    if depth <= BURN_IN:
        raise MapError("depth must exceed the burn-in length %d" % BURN_IN)
    if depth > DEPTH_BUDGET:
        raise MapError("depth must be at most %d" % DEPTH_BUDGET)


def _check_count(count):
    if not 0 <= count <= COUNT_BUDGET:
        raise MapError("the point count must be between 0 and %d" % COUNT_BUDGET)


def backward_orbit_sample(f, count, depth=40, seed=0, stream="cloud"):
    """A cloud of `count` points from random backward orbits of length `depth`.

    An orbit starts at a random point and steps `depth` times to a uniformly
    chosen preimage; the points past the burn-in are kept.  An orbit that
    lands on an exceptional point or meets an uncertified root solve is
    dropped.

    Orbits run in rounds.  A round draws, in orbit order, the start and the
    `depth` preimage choices of every orbit still needed, and advances them
    all in lockstep, one stacked root solve per step.  A failed orbit drops
    only itself, so every orbit kept holds the points it reaches when run
    alone.  Past 10 failed orbits per orbit the count needs, the map is
    refused (MapError).
    """
    _check_orbits(f, depth)
    _check_count(count)
    rng = named_rng(seed, stream)
    exceptional = point_arrays(_exceptional_points(f))
    d = f.degree
    per_orbit = depth - BURN_IN
    n_orbits = math.ceil(count / per_orbit)
    zs, infs = [np.zeros(0, dtype=complex)], [np.zeros(0, dtype=bool)]
    have = 0
    failures = 0
    while have < count:
        if failures > 10 * max(1, n_orbits):
            raise MapError("too many failed backward orbits; map may be degenerate")
        n = math.ceil((count - have) / per_orbit)
        starts = np.empty(n, dtype=complex)
        choices = np.empty((n, depth), dtype=np.int64)
        for k in range(n):
            # rng.random() is the draw that rng.uniform() scales by 1 and
            # shifts by 0, and one draw of `depth` choices gives the values
            # that `depth` scalar draws give
            starts[k] = np.exp(rng.normal(0.0, 0.5)) * np.exp(2j * np.pi * rng.random())
            choices[k] = rng.integers(0, d, size=depth)
        z, inf, failed = _lockstep_orbits(f, exceptional, starts, choices)
        zs.append(z)
        infs.append(inf)
        have += len(z)
        failures += failed
    return MeasureCloud(np.concatenate(zs)[:count], np.concatenate(infs)[:count])


def _lockstep_orbits(f, exceptional, starts, choices):
    """Backward orbits of f from `starts`, orbit i stepping to preimage
    choices[i, k] at step k, all advanced together.

    ``exceptional`` holds the exceptional points as a (z, inf) pair.  The
    points of the orbits still running are carried as one (z, inf) pair,
    and each step picks every orbit's choice out of the solved fibers at
    once; an orbit whose root solve fails, or whose point is an
    exceptional one, is dropped from it.  Returns the points past the
    burn-in of every orbit that never failed as a (z, inf) pair, orbit by
    orbit and in step order within an orbit, and the number of orbits that
    failed.  Rows are built as RationalMap.preimage_row builds them, and
    projective_roots_batch, given no seed, equals projective_roots row by
    row, so every point equals the one a lone orbit reaches bit for bit.
    """
    d = f.degree
    depth = choices.shape[1]
    nc, dc = f.numeric_pair()
    ez, einf = exceptional

    def clear(z, inf):
        # the orbits whose point is no exceptional point.  Each one is a
        # superattracting fixed point: an orbit e away from it is about
        # e^(1/d) away a step later, and only an orbit on it stays there.
        # An orbit at INF carries z = 0, so a finite point matches off INF only.
        return ~np.where(einf, inf[:, None], ~inf[:, None] & (z[:, None] == ez)).any(axis=1)

    z, inf = starts, np.zeros(len(starts), dtype=bool)
    keep = clear(z, inf)
    # the orbits still running: their points, choices and kept points
    z, inf, choices = z[keep], inf[keep], choices[keep]
    kept_z = np.zeros((len(z), depth - BURN_IN), dtype=complex)
    kept_inf = np.zeros((len(z), depth - BURN_IN), dtype=bool)
    for k in range(depth):
        if not len(z):
            break
        scale = np.maximum(1.0, np.hypot(z.real, z.imag))
        if k == 0:
            # a lone orbit's start is a Python complex number, which Python
            # divides by a real s as (re + im * 0.0) / s and (im - re * 0.0) / s
            w = np.empty_like(z)
            w.real = (z.real + z.imag * 0.0) / scale
            w.imag = (z.imag - z.real * 0.0) / scale
        else:
            w = z / scale
        rows = np.where(inf[:, None], dc, nc / scale[:, None] - w[:, None] * dc)
        fz, finf, failed = projective_roots_batch(rows, d)
        pick = np.arange(len(z)), choices[:, k]
        z, inf = fz[pick], finf[pick]
        keep = clear(z, inf)
        keep[list(failed)] = False
        if not keep.all():
            z, inf, choices, kept_z, kept_inf = (x[keep] for x in (z, inf, choices, kept_z, kept_inf))
        if k >= BURN_IN:
            kept_z[:, k - BURN_IN] = z
            kept_inf[:, k - BURN_IN] = inf
    return kept_z.reshape(-1), kept_inf.reshape(-1), len(starts) - len(z)


def julia_raster(f, width, height, window, count=20000, depth=30, seed=0):
    """Grayscale PPM (binary P6) of the log-scaled backward-orbit density.

    window = (re_min, re_max, im_min, im_max).
    """
    re0, re1, im0, im1 = window
    if not (re1 > re0 and im1 > im0 and math.isfinite(re1 - re0) and math.isfinite(im1 - im0)):
        raise MapError("empty or unbounded raster window")
    if width < 1 or height < 1:
        raise MapError("raster width and height must be positive")
    if width * height > PIXEL_BUDGET:
        raise MapError("a raster has at most %d pixels" % PIXEL_BUDGET)
    _check_count(count)
    z = np.zeros(0, dtype=complex)
    if count > 0:
        cloud = backward_orbit_sample(f, count, depth=depth, seed=seed, stream="raster")
        z = cloud.z[~cloud.inf]  # INF is not drawn
    col = (z.real - re0) / (re1 - re0) * width
    row = (im1 - z.imag) / (im1 - im0) * height
    # a pixel index truncates toward zero, like int(), so it lies in
    # [0, n) exactly when the unrounded one lies in (-1, n)
    inside = (col > -1) & (col < width) & (row > -1) & (row < height)
    pixel = row[inside].astype(np.int64) * width + col[inside].astype(np.int64)
    counts = np.bincount(pixel, minlength=width * height)
    # the gray level of a pixel with k points is log1p(k) / log1p(max count),
    # scaled to 255: one table entry per count, not one log1p per pixel
    levels = np.log1p(np.arange(counts.max() + 1, dtype=float))
    if levels[-1] > 0:
        levels /= levels[-1]
    gray = (levels * 255).astype(np.uint8)[counts]
    del counts  # 8 bytes a pixel, not held through the copies below
    header = b"P6\n%d %d\n255\n" % (width, height)
    return header + np.repeat(gray, 3).tobytes()


def lit_fraction(ppm_bytes):
    """Fraction of non-black pixels in a P6 raster (for sanity checks)."""
    idx = ppm_bytes.index(b"255\n") + 4
    body = np.frombuffer(ppm_bytes[idx:], dtype=np.uint8)
    pixels = body.reshape(-1, 3)
    return float((pixels.sum(1) > 0).mean())
