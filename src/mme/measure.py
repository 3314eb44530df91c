"""Empirical maximal-entropy measures by backward-orbit sampling.

Preimage sets of a point equidistribute toward the measure of maximal
entropy, so independent random backward orbits (uniform preimage choice,
short burn-in discarded) give a point cloud approximating it.  The orbits
of a cloud advance together as one (z, inf) pair, and the cloud is that
pair: ``push_forward`` maps its points and ``julia_raster`` bins its finite
ones as they are, and only the energy distance reads them as stereographic
lifts on the unit sphere (``MeasureCloud.points``), where infinity needs no
special casing.  Clouds are compared with the energy distance,
``measure_distance(A, Bs)``: one pass over shared index draws gives the
distance from A to every cloud of Bs, so the sampled route's baseline
(f's cloud against a second cloud of f) and cross distance (against g's
cloud) share their draws, A's gathers and A's self term.  Count, depth and
raster size have budgets (COUNT_BUDGET, DEPTH_BUDGET, PIXEL_BUDGET),
checked before any draw or allocation; past them the input is refused
(MapError, exit 2).

``same_measure_test`` and ``sigma_invariance_check`` first try the exact
identities of :mod:`mme.identities` that prove the measures equal, then,
for two polynomials, its exact capacity and moment invariants that prove
them different (``moment_test``); only a pair that neither decides is
sampled.  Samples never prove equal measures: the sampled route says
DIFFERENT or INCONCLUSIVE, never SAME.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .identities import (
    invariant_measure_identity,
    moebius_conjugate,
    moment_test,
    same_measure_identity,
)
from .numeric import (
    INF,
    RootFindingError,
    chordal,
    chordal_matrix,
    named_rng,
    point_arrays,
    projective_roots,
    projective_roots_batch,
    sphere_lift_many,
)
from .polys import Poly
from .ratmaps import MapError
from .serialize import element_to_json

BURN_IN = 10
SAME_FACTOR = 3.0
DIFFERENT_FACTOR = 10.0
ALL_PAIRS_CAP = 2000
SUBSAMPLE_PAIRS = 10**6
# independent same-map cloud pairs averaged into the sigma-invariance baseline
BASELINE_PAIRS = 3
# chordal distance within which an orbit point is taken to be an exceptional
# point: rounding only, since a backward orbit is stuck only on the point
# itself (the Julia set of z^2 + 10^6 z comes within 1e-6 of infinity)
EXCEPTIONAL_CUT = 1e-12
# budgets on sampled work, checked before any draw or allocation (exit 2).
# COUNT_BUDGET keeps cloud indices below 2^31, as the energy distance's
# int32 index draws need.
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

    @property
    def points(self):
        """The (N, 3) stereographic lifts of the points to the unit sphere."""
        return sphere_lift_many(self.z, self.inf)


@dataclass
class MeasureDistanceReport:
    """The sampled route's verdict: DIFFERENT (statistical) when the clouds
    are DIFFERENT_FACTOR times farther apart than the same-map baseline,
    else INCONCLUSIVE.  Clouds that agree, within SAME_FACTOR of the
    baseline, prove nothing (the Julia sets of z^2 + 10^6 z and
    z^2 + 10^6 z + 1 are too close to infinity for the chordal energy
    distance to separate), so the report gives the reason instead of SAME."""

    distance: float
    self_baseline: float
    meta: dict = field(default_factory=dict)
    route = "energy distance"

    @property
    def verdict(self):
        if self.distance > DIFFERENT_FACTOR * self.self_baseline:
            return "DIFFERENT"
        return "INCONCLUSIVE"

    def as_dict(self):
        out = {
            "route": self.route,
            "distance": self.distance,
            "self_baseline": self.self_baseline,
            "ratio": self.distance / self.self_baseline if self.self_baseline else None,
            "verdict": self.verdict,
            "thresholds": {"same": SAME_FACTOR, "different": DIFFERENT_FACTOR,
                           "note": "calibration constants, not theorem claims"},
            **self.meta,
        }
        if self.distance < SAME_FACTOR * self.self_baseline:
            out["reason"] = "sampled clouds agree; no exact identity within the degree budget"
        return out


@dataclass
class ExactMeasureReport:
    """An exact verdict: SAME by a theorem resting on an exact identity (the
    route names the identity, the witness its exponents), or DIFFERENT by
    an exact invariant of polynomial maps (route "capacity" or "moments",
    the witness its unequal values).  No cloud is drawn, so no count, depth
    or seed is reported."""

    verdict: str
    route: str
    witness: dict | None = None
    meta: dict = field(default_factory=dict)

    def as_dict(self):
        return {"verdict": self.verdict, "route": self.route, "witness": self.witness,
                **self.meta}


def map_digest(f):
    ns, ds = ([element_to_json(c) for c in p.coeffs] for p in (f.num, f.den))
    return hashlib.sha256(repr((ns, ds)).encode()).hexdigest()[:16]


def _exceptional_points(f):
    """Totally invariant finite sets: fixed points equal to their full preimage."""
    d = f.degree
    # fixed points: roots of p(z) - z q(z), plus infinity when deg p > deg q
    fixed_poly = f.num - Poly.x(f.ctx) * f.den
    pts = projective_roots(fixed_poly.numeric_coeffs(), d + 1)
    out = []
    for z in pts:
        try:
            pre = f.preimages(z)
        except RootFindingError:
            continue
        if all(chordal(w, z) < 1e-6 for w in pre):
            out.append(z)
    return out


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


def _check_comparison(maps, count, depth):
    """The input errors of sampling, raised before any route runs, so an
    exact route accepts exactly the input the sampled route accepts."""
    for f in maps:
        _check_orbits(f, depth)
    if count < 1:
        raise MapError("the energy distance needs non-empty clouds: the count must be >= 1")
    _check_count(count)


def backward_orbit_sample(f, count, depth=40, seed=0, stream="cloud"):
    """A cloud of `count` points from random backward orbits of length `depth`.

    An orbit starts at a random point and steps `depth` times to a uniformly
    chosen preimage; the points past the burn-in are kept.  An orbit that
    meets an exceptional point or an uncertified root solve is dropped.

    Orbits run in rounds.  A round draws, in orbit order, the start and the
    preimage choices of every orbit still needed, and advances them all in
    lockstep, one stacked root solve per step.  The orbits after the first
    failed one are dropped, and the generator is set back to the round's
    first state and replays the round's draws up to the last one that
    orbit made before it failed, so the cloud is the one that running the
    orbits one at a time gives, bit for bit.
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
        state = rng.bit_generator.state
        starts, choices = _draw_orbits(rng, math.ceil((count - have) / per_orbit), d, depth)
        z, inf, failed = _lockstep_orbits(f, exceptional, starts, choices)
        zs.append(z)
        infs.append(inf)
        have += len(z)
        if failed is not None:
            i, steps = failed
            failures += 1
            rng.bit_generator.state = state
            _draw_orbits(rng, i + 1, d, depth, last=steps)
    return MeasureCloud(np.concatenate(zs)[:count], np.concatenate(infs)[:count])


def _draw_orbits(rng, n, d, depth, last=None):
    """The starts and preimage choices of n orbits, drawn orbit by orbit;
    with `last`, the final orbit draws only its first `last` choices.  One
    draw of `depth` choices leaves the values and the generator state that
    `depth` scalar draws leave."""
    starts = np.empty(n, dtype=complex)
    choices = np.zeros((n, depth), dtype=np.int64)
    for k in range(n):
        starts[k] = np.exp(rng.normal(0.0, 0.5)) * np.exp(2j * np.pi * rng.uniform())
        m = depth if last is None or k < n - 1 else last
        choices[k, :m] = rng.integers(0, d, size=m)
    return starts, choices


def _lockstep_orbits(f, exceptional, starts, choices):
    """Backward orbits of f from `starts`, orbit i stepping to preimage
    choices[i, k] at step k, all advanced together.

    ``exceptional`` is the (z, inf) pair of the exceptional points.  The
    points of all orbits are carried as one (z, inf) pair, and each step
    picks every orbit's choice out of the solved fibers at once.  Returns
    the points past the burn-in of every orbit before the first failed one
    as a (z, inf) pair, orbit by orbit and in step order within an orbit,
    and that failure as (orbit, preimage choices it made), or None.  Rows
    are built as RationalMap.preimages builds them, and
    projective_roots_batch equals projective_roots row by row, so every
    point equals the one a lone orbit reaches bit for bit.
    """
    d = f.degree
    depth = choices.shape[1]
    nc, dc = f.numeric_pair()
    kept_z = np.zeros((len(starts), depth - BURN_IN), dtype=complex)
    kept_inf = np.zeros((len(starts), depth - BURN_IN), dtype=bool)
    failed = None

    def cut(z, inf, steps):
        # drop the orbits from the first one near an exceptional point on
        nonlocal failed
        near = np.flatnonzero((chordal_matrix(z, inf, *exceptional) < EXCEPTIONAL_CUT).any(axis=1))
        if len(near):
            failed = (int(near[0]), steps)
            return z[:near[0]], inf[:near[0]]
        return z, inf

    z, inf = cut(starts, np.zeros(len(starts), dtype=bool), 0)
    for k in range(depth):
        if not len(z):
            break
        if k == 0:
            # a lone orbit builds its start's row on a Python complex
            # number, whose division rounds unlike numpy's
            rows = np.array([nc / s - (w / s) * dc
                             for w in z.tolist() for s in [max(1.0, abs(w))]])
        else:
            scale = np.maximum(1.0, np.hypot(z.real, z.imag))[:, None]
            rows = np.where(inf[:, None], dc, nc / scale - (z[:, None] / scale) * dc)
        fz, finf, error = projective_roots_batch(rows, d, residual_tol=1e-7, refine=False)
        if error is not None:
            failed = (len(fz), k)
        pick = np.arange(len(fz)), choices[:len(fz), k]
        z, inf = cut(fz[pick], finf[pick], k + 1)
        if k >= BURN_IN:
            kept_z[:len(z), k - BURN_IN] = z
            kept_inf[:len(z), k - BURN_IN] = inf
    n = len(z)
    return kept_z[:n].reshape(-1), kept_inf[:n].reshape(-1), failed


def _distances(U, V):
    """|u - v| for the coordinate-major points U and V, broadcast against
    each other.

    The squares are added as (dx² + dy²) + dz², the order in which a sum
    over the last axis of a row-major (..., 3) array adds them, so every
    distance equals the row-major one bit for bit.
    """
    out = None
    for u, v in zip(U, V):
        t = u - v
        t *= t
        out = t if out is None else np.add(out, t, out=out)
    return np.sqrt(out, out=out)


def _mean_pair_distance(P, Q):
    return float(_distances(P[:, :, None], Q[:, None, :]).mean())


def measure_distance(A, Bs, seed=0):
    """Energy distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| on the sphere from the
    cloud A to each cloud of Bs, one float per cloud of Bs.

    All-pairs for small clouds; above the cap the three expectations are
    estimated on shared index draws (common random numbers), which cancels
    most of the per-pair sampling noise when A and B are close.  The draws
    come in four index arrays (i, j into A; i, j into B), and a chunk of
    them gathers each coordinate of each array once: those twelve arrays
    give all four distance terms of the chunk.  The clouds of Bs have one
    length, so they share the draws: each chunk gathers A's coordinates
    and computes A's self term once for all of them.  Every value equals
    the distance from A to that cloud alone, bit for bit.
    """
    if not Bs:
        raise MapError("the energy distance needs at least one cloud to compare")
    na, nb = len(A), len(Bs[0])
    if any(len(B) != nb for B in Bs):
        raise MapError("the compared clouds must have one length")
    if not (na and nb):
        raise MapError("the energy distance needs two non-empty clouds")
    pa = np.ascontiguousarray(A.points.T)
    pbs = [np.ascontiguousarray(B.points.T) for B in Bs]
    if max(na, nb) <= ALL_PAIRS_CAP:
        self_a = _mean_pair_distance(pa, pa)
        return [2.0 * _mean_pair_distance(pa, pb) - self_a - _mean_pair_distance(pb, pb)
                for pb in pbs]

    rng = named_rng(seed, "energy")
    totals = [0.0] * len(Bs)
    block = 10**5
    n_pairs = SUBSAMPLE_PAIRS
    # the summand of a block is made a cache-sized chunk of pairs at a time,
    # then summed whole, so the total is the one summed from full blocks
    chunk = 8192
    summands = np.empty((len(Bs), block))
    done = 0
    while done < n_pairs:
        m = min(block, n_pairs - done)
        # one draw at a time, each cast to int32 (the count budget keeps the
        # indices below 2^31) before the next is made, so beside the
        # previous block's four arrays one int64 draw at most is held
        ia = rng.integers(0, na, size=m).astype(np.int32)
        ja = rng.integers(0, na, size=m).astype(np.int32)
        ib = rng.integers(0, nb, size=m).astype(np.int32)
        jb = rng.integers(0, nb, size=m).astype(np.int32)
        for s in range(0, m, chunk):
            part = slice(s, min(s + chunk, m))
            # each draw cast to intp once, which take would do per gather,
            # and each coordinate of each draw gathered once, for all four
            # terms; the draws are in range, so clipping moves no index and
            # only skips the bounds check
            ka, la, kb, lb = (i[part].astype(np.intp) for i in (ia, ja, ib, jb))
            xa, ya = ([c.take(i, mode="clip") for c in pa] for i in (ka, la))
            self_a = _distances(xa, ya)
            for pb, summand in zip(pbs, summands):
                xb, yb = ([c.take(i, mode="clip") for c in pb] for i in (kb, lb))
                out = summand[part]
                np.add(_distances(xa, yb), _distances(ya, xb), out=out)
                out -= self_a
                out -= _distances(xb, yb)
        totals = [total + float(summand[:m].sum()) for total, summand in zip(totals, summands)]
        done += m
    return [total / n_pairs for total in totals]


def same_measure_test(f, g, count=4000, depth=40, seed=0):
    """SAME by an exact identity (``identities.same_measure_identity``), else
    DIFFERENT by an exact invariant (``identities.moment_test``), else a
    DIFFERENT or INCONCLUSIVE verdict from the energy distance against a
    self baseline (``MeasureDistanceReport``)."""
    _check_comparison((f, g), count, depth)
    maps = [map_digest(f), map_digest(g)]
    exact = same_measure_identity(f, g)
    if exact is not None:
        return ExactMeasureReport("SAME", *exact, meta={"maps": maps})
    exact = moment_test(f, g)
    if exact is not None:
        return ExactMeasureReport("DIFFERENT", *exact, meta={"maps": maps})
    cf1 = backward_orbit_sample(f, count, depth=depth, seed=seed, stream="f-first")
    cf2 = backward_orbit_sample(f, count, depth=depth, seed=seed, stream="f-second")
    cg = backward_orbit_sample(g, count, depth=depth, seed=seed, stream="g")
    baseline, distance = measure_distance(cf1, [cf2, cg], seed=seed)
    return MeasureDistanceReport(
        distance=distance,
        self_baseline=max(abs(baseline), 1e-12),
        meta={"count": count, "depth": depth, "seed": seed, "maps": maps},
    )


def sigma_invariance_check(f, sigma, count=2000, depth=30, seed=0):
    """SAME by an exact identity (``identities.invariant_measure_identity``),
    else, for a Moebius sigma over f's field, DIFFERENT by an exact
    invariant of f against sigma o f o sigma^-1, whose measure is
    sigma_* mu_f (``identities.moment_test``), else a DIFFERENT or
    INCONCLUSIVE verdict on whether pushing a cloud of f forward by sigma
    preserves the empirical measure.

    The pushed cloud is compared against an independent cloud of f, and the
    baseline averages BASELINE_PAIRS independent same-map pair distances (a
    single pair draw is too noisy to threshold against).
    """
    _check_comparison((f,), count, depth)
    exact = invariant_measure_identity(f, sigma)
    if exact is not None:
        return ExactMeasureReport("SAME", *exact, meta={"map": map_digest(f)})
    if sigma.degree == 1 and sigma.ctx is f.ctx:
        exact = moment_test(f, moebius_conjugate(f, sigma))
        if exact is not None:
            return ExactMeasureReport("DIFFERENT", *exact, meta={"map": map_digest(f)})
    pushed = push_forward(
        backward_orbit_sample(f, count, depth=depth, seed=seed, stream="push-src"),
        sigma,
    )
    ref = backward_orbit_sample(f, count, depth=depth, seed=seed, stream="push-ref")
    [dist] = measure_distance(pushed, [ref], seed=seed)
    baselines = []
    for k in range(BASELINE_PAIRS):
        a = backward_orbit_sample(f, count, depth=depth, seed=seed,
                                  stream="base-a-%d" % k)
        b = backward_orbit_sample(f, count, depth=depth, seed=seed,
                                  stream="base-b-%d" % k)
        baselines.append(abs(measure_distance(a, [b], seed=seed)[0]))
    return MeasureDistanceReport(
        distance=dist,
        self_baseline=max(float(np.mean(baselines)), 1e-12),
        meta={"count": count, "depth": depth, "seed": seed, "map": map_digest(f),
              "baseline_pairs": BASELINE_PAIRS},
    )


def push_forward(cloud, phi):
    """Image cloud under a RationalMap."""
    zs = [phi.eval_numeric(INF if i else z) for z, i in zip(cloud.z.tolist(), cloud.inf.tolist())]
    return MeasureCloud(*point_arrays(zs))


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
    hist = np.zeros((height, width))
    np.add.at(hist, (row[inside].astype(np.int64), col[inside].astype(np.int64)), 1)
    dens = np.log1p(hist)
    peak = dens.max()
    if peak > 0:
        dens /= peak
    gray = (dens * 255).astype(np.uint8)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    header = b"P6\n%d %d\n255\n" % (width, height)
    return header + rgb.tobytes()


def lit_fraction(ppm_bytes):
    """Fraction of non-black pixels in a P6 raster (for sanity checks)."""
    idx = ppm_bytes.index(b"255\n") + 4
    body = np.frombuffer(ppm_bytes[idx:], dtype=np.uint8)
    pixels = body.reshape(-1, 3)
    return float((pixels.sum(1) > 0).mean())
