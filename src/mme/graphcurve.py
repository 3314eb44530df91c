"""Decomposition of the graph curve {G(x) = G(y)} by monodromy on the target line.

Over a point t that is not a critical value of G, the fiber G^-1(t) is d
points x_1..x_d.  A loop around a critical value permutes them.  By Fried's
fibre-product correspondence the irreducible components of the curve are the
orbits of these permutations on ordered pairs (i, j): the component of an
orbit O passes through (x_i, x_j) for every (i, j) in O, both projections have
degree r = |O|/d, and Riemann-Hurwitz over the critical values gives its
genus.  The diagonal is the orbit {(i, i)}.  Over a preimage p of a critical
value v, the branches of a component are the cycles of the loop around v on
the pairs whose first point sits at p.

Fibers are tracked in the target chart t' = 1/(t - c), with c chordally far
from every critical value, so every critical value is finite there and
t' = infinity is not one; x and y never leave the original chart.  A loop
is a leg from the basepoint, a circle about the critical value and the leg
back, so only the legs and then the circles are tracked, each set together,
level by level: each level solves the fibers at all its abscissae in one
batched root solve (cut in batches of at most CHUNK_ENTRIES entries), each
fiber by Aberth iteration from a fiber of its path already solved, and
bisects every step that does not move each point to a distinct nearest
point well inside the new fiber's separation, up to BISECTION_BUDGET steps
per path.  A path whose root solve or step fails drops only itself; the
others run on as they would alone.  The keyholes of all critical values
are laid out in one pass of array operations.  The fibers over all
critical values, where the branch data find the simple preimages, are one
batched solve too.  A
circle closes on the fiber where its leg ends, so the loop's permutation
is read off the circle's last fiber, by exact equality with the entry
fiber, and checked against the exact local degrees of G.  Legs and circles are tracked in base-sheet
order, so the fiber at every vertex of a circle puts a point (x_i, x_j) on
the component of each orbit holding (i, j); those points are the
component's samples.  P is checked antisymmetric, so x - y divides it:
the diagonal's factor is x - y, and when the other pairs form one orbit,
as for a generic map, its factor is P / (x - y), exact over every field.
With three orbits or more, each off-diagonal component's x-degree is
confirmed by a relation vanishing on its samples, and, when that relation
rationalizes into the base field, the component is certified by exact
polynomial division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import INF, BasepointError, ConsistencyError, TrackingError, is_inf
from .numeric import (
    chordal,
    chordal2,
    homogeneous,
    min_pairwise_chordal2,
    point_arrays,
    projective_roots,
    projective_roots_batch,
    rationalize_into_field,
)
from .polys import BiPoly, graph_bipoly
from .ratmaps import MapError, RationalMap, SizeBudgetError, critical_data
from .serialize import element_to_json, point_to_json

# the basepoints the loop layout chooses from, equally spaced on one circle
LAYOUT_CANDIDATES = 256
# the steps of a keyhole loop's full circle around one critical value
KEYHOLE_STEPS = 24
# the most entries, rows times d^2, of one batch of fiber solves or step checks
CHUNK_ENTRIES = 2**18
# the most steps ``_track`` bisects on one path before that path fails: 35
# times the most any path took on the scripts/graph_digest.py corpus (118)
# or at degree 40 (89), while a path whose every step is rejected reaches it
# after twelve levels
BISECTION_BUDGET = 2**12
# the highest degree build_graph accepts, checked before any work: at 64 a
# dense integer rational map takes 13-16 s and z^64 + 3z^7 - 2z^3 + z + 1
# 4.5-6.5 s (one cold process on one CPU of a shared 2-vCPU VM), so the
# worst admissible input stays well under a 30 s ceiling; at 80 the dense
# map took 26 s
DEGREE_BUDGET = 64


def linear_sum_assignment(cost):
    """(rows, cols) sending each row of the square ``cost`` to its cheapest column.  If those
    are distinct, every row pays its own minimum, so no assignment costs less, and none ties
    when the minima are strict.  Two rows with one cheapest column raise TrackingError."""
    cols = cost.argmin(axis=1)
    if len(set(cols.tolist())) < len(cols):
        raise TrackingError("two cycles sit nearest the same preimage")
    return np.arange(len(cols)), cols


@dataclass
class GraphCurve:
    G: RationalMap
    P: BiPoly  # exact defining polynomial of the curve
    pole: complex  # c of the target chart t' = 1/(t - c)
    matrix: np.ndarray  # (2, d + 1): G^-1(t') is the roots in x of row0 + t' * row1
    values: list  # critical values of G in the target chart
    preimages: list  # per critical value, [(point, local degree)]; scalar points, complex or INF

    @property
    def degree(self):
        return self.G.degree

    @property
    def branch_locus(self):
        """Every preimage of every critical value, grouped by critical value."""
        return [p for pre in self.preimages for p, _e in pre]


@dataclass
class LoopPlan:
    """Keyhole loops from the basepoint, one per critical value, each cut
    into its level-0 tracking steps: the leg from the basepoint to the
    value's disc, and the circle about the value that closes where the leg
    ends."""

    basepoint: complex  # target chart
    order: list  # critical value indices sorted by argument about the basepoint
    legs: list  # polyline per critical value, basepoint -> entry point
    circles: list  # polyline per critical value, entry point -> entry point
    corners: list  # per circle, the indices of its KEYHOLE_STEPS + 1 arc ends


@dataclass
class MonodromyAction:
    basepoint: complex  # target chart
    permutations: list  # one tuple per critical value, in curve.values order
    cycles: list  # per critical value, the cycle of its permutation at each preimage
    samples: tuple  # ((z, inf) of n loop-vertex fibers, stacked; each one's abscissa sheet)


@dataclass
class ComponentCertificate:
    orbit: tuple  # ordered pairs (i, j) of base sheets, sorted
    bidegree: tuple  # (r, r): r from the orbit, confirmed by the x-degree of the samples
    ramification: list  # per branch point, partition of r (local degrees)
    genus: int
    is_diagonal: bool
    # (r + 1, r + 1) coefficients of x^a y^k vanishing on it, fitted only for
    # the off-diagonal orbits of a map with three orbits or more
    relation: np.ndarray = None
    exact_poly: BiPoly = None  # exact factor when certified

    @property
    def r(self):
        return self.bidegree[0]


# -- construction -------------------------------------------------------------------


def _branch_data(G):
    """Each critical value of G with its preimages and their exact local degrees.

    The critical points and their local degrees m + 1 come from the exact
    square-free decomposition of the Wronskian.  The other preimages of a
    critical value v are simple: the roots of N - vD left once the e roots
    nearest each critical point of local degree e are set aside.  A group
    whose local degrees need more preimages than d (distinct critical
    values that evaluate to one point) raises TrackingError.

    The fibers over all critical values are one projective_roots_batch
    solve of the rows G.preimages would solve one by one, which equals
    that loop bit for bit; a row that cannot be certified raises its
    RootFindingError in its turn, once the values before it have been
    checked, as the loop would.
    """
    d = G.degree
    groups = critical_data(G).value_groups
    z, inf, failed = projective_roots_batch(np.array([G.preimage_row(v) for v, _g in groups]), d)
    out = []
    for k, ((v, group), fz, finf, h) in enumerate(zip(groups, z, inf, homogeneous(z, inf))):
        if k in failed:
            raise failed[k]
        if sum(m + 1 for _p, m in group) > d:
            raise TrackingError("critical points of one critical value exceed its fiber")
        crit = homogeneous(*point_arrays([p for p, _m in group]))
        dist = chordal2(h, crit)  # [root, critical point], squared
        left = np.arange(d)  # the roots not yet set aside
        for j, (_p, m) in enumerate(group):
            # the m + 1 nearest, first-wins on ties as m + 1 argmin pops would be
            left = np.delete(left, np.argsort(dist[left, j], kind="stable")[:m + 1])
        pre = [(p, m + 1) for p, m in group] + [(INF if finf[i] else fz[i], 1) for i in left]
        if min_pairwise_chordal2(np.concatenate([crit, h[:, left]], axis=-1)) < 1e-8:
            raise TrackingError("preimages of a critical value are too close to tell apart")
        out.append((v, pre))
    return out


def _target_pole(values):
    """The point of the integer grid [-3, 3] x [-3, 3]i chordally farthest
    from the critical values."""
    grid = np.array([complex(a, b) for a in range(-3, 4) for b in range(-3, 4)])
    dist = chordal(grid, np.zeros(len(grid), dtype=bool), *point_arrays(values))
    return complex(grid[dist.min(axis=1).argmax()])


def _to_target(pole, t):
    return 0j if is_inf(t) else 1.0 / (t - pole)


def _from_target(pole, s):
    return INF if s == 0 else pole + 1.0 / s


def build_graph(G):
    """Exact defining polynomial plus the target chart."""
    if G.degree < 2:
        raise MapError("graph-curve analysis requires degree >= 2")
    if G.degree > DEGREE_BUDGET:
        raise SizeBudgetError("graph-curve analysis: degree %d exceeds the degree budget %d"
                              % (G.degree, DEGREE_BUDGET))
    P = graph_bipoly(G.num, G.den)
    # an antisymmetric P has P(x, x) = 0, so x - y divides it: the diagonal
    # is a factor of P with no division to check
    if not P.is_antisymmetric():
        raise ConsistencyError("defining polynomial is not antisymmetric")
    dx, dy = P.bidegree
    if dx != G.degree or dy != G.degree:
        raise ConsistencyError("defining polynomial has wrong bidegree")

    branch = _branch_data(G)
    pole = _target_pole([v for v, _pre in branch])
    num, den = G.numeric_pair()
    # N(x) - (c + 1/t') D(x) = 0, times t'
    matrix = np.array([-den, num - pole * den])
    return GraphCurve(
        G=G,
        P=P,
        pole=pole,
        matrix=matrix,
        values=[_to_target(pole, v) for v, _pre in branch],
        preimages=[pre for _v, pre in branch],
    )


def fiber_at(curve, t0):
    """(z, inf) of the d points x with G(x) = t, for t0 = 1/(t - c) in the target chart."""
    fiber = point_arrays(projective_roots(_fiber_coeffs(curve.matrix, [t0])[0], curve.degree))
    if min_pairwise_chordal2(homogeneous(*fiber)) < 1e-10:
        raise TrackingError("fiber is nearly degenerate: t0 too close to a critical value")
    return fiber


def _fiber_coeffs(matrix, ts):
    """Coefficients in x of the fiber equation at each t', one row per t'."""
    powers = np.asarray(ts, dtype=complex)[:, None] ** np.arange(matrix.shape[0])
    # a stack of row-times-matrix products rounds like each product alone;
    # one matrix-matrix product would not
    return np.matmul(powers[:, None, :], matrix)[:, 0, :]


# -- loops and tracking ----------------------------------------------------------------


def _keyholes(x0, b, rho):
    """Per critical value b[i], the leg from x0 to the disc of radius
    rho[i] about it, the circle of KEYHOLE_STEPS arcs that closes exactly
    at the leg's end, and the circle's vertex index at each arc end, all
    built by one set of array operations: (legs, circles, corners).

    Every segment of the loop leg . circle . leg^-1 is cut into steps of a
    64th of that loop's length: these are the level-0 steps of ``_track``.
    A segment [p, q] cut into steps of length ``step`` gets the points
    p + i h (q - p), h = min(1, step / |q - p|), for the i >= 1 with
    i h < 1 - 1e-15, then q.  Legs and circles are lists of points, x0
    first in each leg.
    """
    b, rho = np.asarray(b, dtype=complex), np.asarray(rho, dtype=float)
    n = len(b)
    # np.hypot and a complex divisor round as scalar abs() and division of
    # complex points do; np.abs of a complex array and division by a real
    # array do not always
    u = b - x0
    entry = b - rho * (u / np.hypot(u.real, u.imag).astype(complex))
    phi = np.angle(entry - b)[:, None] + 2 * np.pi * np.arange(1, KEYHOLE_STEPS) / KEYHOLE_STEPS
    # per loop: x0, the KEYHOLE_STEPS + 1 arc ends (entry first and last), x0
    loop = np.empty((n, KEYHOLE_STEPS + 3), dtype=complex)
    loop[:, 0] = loop[:, -1] = x0
    loop[:, 1] = loop[:, -2] = entry
    loop[:, 2:-2] = b[:, None] + rho[:, None] * np.exp(1j * phi)
    gaps = np.diff(loop, axis=1)
    lengths = np.hypot(gaps.real, gaps.imag)
    # summed in loop order, one segment after another
    step = sum(lengths.T) / 64.0
    # the segments to cut, loop by loop: the leg, then the circle's arcs
    start, end, length = loop[:, :-2].ravel(), loop[:, 1:-1].ravel(), lengths[:, :-1]
    h = np.minimum(1.0, step[:, None] / length).ravel()
    cuts = np.ceil(1.0 / h).astype(int) - 1  # the candidates i of each segment
    seg = np.repeat(np.arange(len(h)), cuts)
    i = np.arange(len(seg)) - np.repeat(np.cumsum(cuts) - cuts, cuts) + 1
    t = i * h[seg]
    keep = t < 1.0 - 1e-15
    seg, t = seg[keep], t[keep]
    # every segment's inner points, then its end, in segment order
    at = np.arange(len(h)) + np.searchsorted(seg, np.arange(len(h)), side="right")
    points = np.empty(len(seg) + len(h), dtype=complex)
    points[at] = end
    inner = np.ones(len(points), dtype=bool)
    inner[at] = False
    points[inner] = start[seg] + t * (end[seg] - start[seg])
    ends = (at + 1).reshape(n, KEYHOLE_STEPS + 1)  # one past each segment's last point
    legs, circles, corners = [], [], []
    for k in range(n):
        lo = ends[k, 0]  # the leg's end: the entry point
        legs.append([x0] + list(points[ends[k - 1, -1] if k else 0:lo]))
        circles.append(list(points[lo - 1:ends[k, -1]]))
        corners.append((ends[k] - lo).tolist())
    return legs, circles, corners


def _plan_loops(curve):
    """One keyhole loop per critical value b_i, from the best basepoint of a
    circle, as a leg and a circle, all built in one pass (see ``_keyholes``).

    The candidates are LAYOUT_CANDIDATES equally spaced points x0 on the
    circle of radius 1.8 * spread + sep about the mean of the b_i.  Each
    scores c = min over i != j of dist(b_j, [x0, b_i]) / sep_j, where sep_j
    is the distance from b_j to its nearest other critical value.  The best
    candidate gets discs of radius eps * sep_j with eps = min(1/3, c/2), so
    the discs are disjoint and every leg passes 2 eps sep_j or more from b_j.
    (The critical values are at least two: no cover of the sphere by the
    sphere has a single branch value.)
    """
    pts = np.array(curve.values)
    n = len(pts)
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    seps = gaps.min(axis=1)
    center = pts.mean()
    spread = np.abs(pts - center).max() or 1.0
    angles = 2 * np.pi * np.arange(LAYOUT_CANDIDATES) / LAYOUT_CANDIDATES
    x0s = center + (1.8 * spread + seps.min()) * np.exp(1j * angles)
    # [k, i, j]: the distance from b_j to the leg [x0_k, b_i], over sep_j
    leg = pts[None, :, None] - x0s[:, None, None]
    off = pts[None, None, :] - x0s[:, None, None]
    t = np.clip((off * leg.conj()).real / np.abs(leg) ** 2, 0.0, 1.0)
    clear = np.abs(off - t * leg) / seps
    clear[:, np.arange(n), np.arange(n)] = np.inf
    worst = clear.min(axis=(1, 2))
    k = int(worst.argmax())
    eps = min(1.0 / 3.0, worst[k] / 2.0)
    if eps < 1.0 / 384.0:
        raise BasepointError("could not lay out non-overlapping loops; rescale the map")
    x0 = complex(x0s[k])
    order = sorted(range(n), key=lambda i: (np.angle(pts[i] - x0), abs(pts[i] - x0)))
    legs, circles, corners = _keyholes(x0, pts, eps * seps)
    return LoopPlan(basepoint=x0, order=order, legs=legs, circles=circles, corners=corners)


def _track(matrix, d, starts, paths):
    """Continue ``starts[k]`` along ``paths[k]`` (a polyline), for every k,
    level by level.

    Level 0 takes one step per segment, so the caller cuts each path into
    its steps.  A closed path takes its start fiber, in its own sheet
    order, as the fiber at its closing vertex instead of solving it there.
    A step is accepted when each old point's nearest new point is closer
    than 0.4 sep, sep the new fiber's separation, and no two old points
    pick the same one; its moves are then that nearest-point map.  This
    decides as the assignment of least chordal cost would: if that
    assignment moves every point by less than 0.4 sep, the triangle
    inequality puts every other new point more than 0.6 sep away, so it is
    the nearest-point map; and a nearest-point bijection within 0.4 sep
    costs strictly less than any other assignment, each of whose changed
    entries costs more than 0.6 sep.  The rule does not depend on sheet
    order, so it is decided on the fibers as solved.  It is checked on
    squared distances, largest move^2 < 0.16 sep^2, each one a 2 x 2
    determinant of normalized homogeneous coordinates (see
    ``numeric.chordal2``), kept beside every stored fiber.  Every rejected
    step is bisected, and the next level solves the midpoints; a path that
    bisects more than BISECTION_BUDGET steps, as one whose fibers have two
    equal points at every abscissa would at every level, fails with a
    TrackingError, and so does a step bisected below 1e-12.

    The fibers solved so far are the rows of one (z, inf) store: the start
    fibers, then each level's solved fibers appended once the level is
    solved (its seeds are all fibers of earlier levels), so a vertex's
    fiber is a row index into it.  Each level is held as arrays: the nodes
    to solve (path, segment, parameter, seed row) and the steps to check
    (path, segment, the two parameters and the two rows), both in path
    order, a node's row known before it is solved.  A level gathers the
    seeds of its fibers from the store, solves them across all paths, then
    gathers the two ends of its steps and checks them, each in batches of
    at most CHUNK_ENTRIES // d^2 rows (4096 at d = 8).  Every fiber is
    solved with a seed (see projective_roots_batch): a level-0 vertex with
    its path's start fiber, a midpoint with the fiber at the start of its
    step, so a seed, like a step, depends on its own path alone.  A seeded
    fiber is kept from Aberth iteration only when its discs are disjoint;
    the rest come from companion matrices, as without a seed.  The moves
    are composed along each path at the end, all paths at once by a prefix
    scan, and the vertex fibers, in their paths' sheet order, are gathered
    from the store at once.

    The start fibers and the fibers returned are (z, inf) pairs.  Returns
    per path the fibers at its vertices, the first one included, in the
    sheet order of its start fiber, or the first TrackingError or
    RootFindingError it meets.  The last fiber of a closed path holds the
    values of its start fiber, permuted by the loop.  A failed path is
    marked dead: its steps are no longer checked and it bisects no further,
    while every other path goes on, so each path's outcome is the one it
    gets when tracked alone.
    """
    n = len(paths)
    # segment g of the paths, one path after another, runs from a[g] to b[g] on path owner[g]
    a = np.array([x for path in paths for x in path[:-1]], dtype=complex)
    b = np.array([x for path in paths for x in path[1:]], dtype=complex)
    owner = np.repeat(np.arange(n), [max(len(path) - 1, 0) for path in paths])
    length = np.abs(b - a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    last = np.roll(first, -1)
    closed = np.array([len(path) > 1 and path[-1] == path[0] for path in paths])
    z_all, inf_all = map(np.stack, zip(*starts))  # the store; row k is starts[k]
    h_all = homogeneous(z_all, inf_all)  # the store in homogeneous coordinates
    sep_all = min_pairwise_chordal2(h_all)  # the squared separation of each stored fiber
    outcomes = [None] * n
    dead = np.zeros(n, dtype=bool)  # the paths that have failed

    def fail(k, error):
        # a path keeps the first error it meets
        if not dead[k]:
            dead[k] = True
            outcomes[k] = error

    bisected = np.zeros(n, dtype=int)
    per_batch = max(1, CHUNK_ENTRIES // (d * d))  # the most rows of one batch
    # level 0: every segment is a step to its end vertex, which is solved
    # from the path's start fiber unless it closes the path
    solve = ~(last & closed[owner])
    end_row = np.where(solve, n + np.cumsum(solve) - 1, owner)
    nodes = (owner[solve], np.flatnonzero(solve), np.ones(solve.sum()), owner[solve])
    steps = (owner, np.arange(len(a)), np.zeros(len(a)), np.ones(len(a)),
             np.where(first, owner, np.roll(end_row, 1)), end_row)
    # per accepted step: its segment, end parameter, end row and nearest-point map
    moves = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int),
              np.zeros((0, d), dtype=int))]
    while len(steps[0]):
        path, seg, t, seed = nodes
        xs = np.where(t == 1.0, b[seg], a[seg] + t * (b[seg] - a[seg]))
        # the store, then this level's batches
        zs, infs, hs, seps = [z_all], [inf_all], [h_all], [sep_all]
        for lo in range(0, len(path), per_batch):
            at = seed[lo:lo + per_batch]
            coeffs = _fiber_coeffs(matrix, xs[lo:lo + per_batch])
            z, inf, failed = projective_roots_batch(coeffs, d, near=(z_all[at], inf_all[at]))
            zs.append(z)
            infs.append(inf)
            hs.append(homogeneous(z, inf))
            seps.append(min_pairwise_chordal2(hs[-1]))
            for i, error in sorted(failed.items()):
                fail(path[lo + i], error)
        z_all, inf_all, h_all, sep_all = map(np.concatenate, (zs, infs, hs, seps))
        checks = [x[~dead[steps[0]]] for x in steps]
        row = len(z_all)  # the store row of the next level's next node
        nodes, steps = [], []
        for lo in range(0, len(checks[0]), per_batch):
            path, seg, t0, t1, old, new = (x[lo:lo + per_batch] for x in checks)
            cost = chordal2(h_all[old], h_all[new])  # [step, old point, new point], squared
            near = cost.argmin(axis=2)  # [step, old point]: its nearest new point
            moved = np.take_along_axis(cost, near[:, :, None], axis=2)  # squared
            accepted = (np.sort(near) == np.arange(d)).all(axis=1) & (
                moved.max(axis=(1, 2)) < 0.16 * sep_all[new])
            half = (t1 - t0) / 2.0
            underflow = ~accepted & (half * length[seg] < 1e-12)
            split = ~accepted & ~underflow
            count = np.cumsum(split)  # the steps this one's path bisected so far
            count += bisected[path] - (count - split)[np.searchsorted(path, path)]
            bad = np.flatnonzero(underflow | split & (count > BISECTION_BUDGET))
            for i in bad[np.unique(path[bad], return_index=True)[1]]:  # first per path
                fail(path[i], TrackingError("path-tracking step underflow" if underflow[i]
                                            else "path-tracking step budget exceeded"))
            alive = ~dead[path]
            ok = accepted & alive
            moves.append((seg[ok], t1[ok], new[ok], near[ok]))
            split &= alive
            bisected += np.bincount(path[split], minlength=n)
            path, seg, t0, t1, old, new = (x[split] for x in (path, seg, t0, t1, old, new))
            mid = t0 + half[split]
            rows = row + np.arange(len(path))
            row += len(path)
            nodes.append((path, seg, mid, old))
            # each bisected step becomes its two halves, in order
            steps.append([np.stack(pair, axis=1).ravel() for pair in
                          [(path, path), (seg, seg), (t0, mid), (mid, t1), (old, rows), (rows, new)]])
        if not steps:
            break
        nodes, steps = ([np.concatenate(x) for x in zip(*level)] for level in (nodes, steps))
    seg, t, row, perm = map(np.concatenate, zip(*moves))
    keep = ~dead[owner[seg]]
    order = np.lexsort((t[keep], seg[keep]))  # each path's accepted steps, in path order
    seg, t, row, perm = (x[keep][order] for x in (seg, t, row, perm))
    path = owner[seg]
    # perm[s] becomes the composition of the moves of the steps up to s on
    # its path: where each sheet of the start fiber sits in the fiber as solved
    rank = np.arange(len(path)) - np.searchsorted(path, path)
    reach = 1
    while reach <= rank.max(initial=0):
        # each step's map after the maps of the up to ``reach`` steps before it
        later = np.flatnonzero(rank >= reach)
        perm[later] = perm.ravel()[later[:, None] * d + perm[later - reach]]
        reach *= 2
    vertex = t == 1.0
    gather = row[vertex][:, None], perm[vertex]
    fibers = list(zip(z_all[gather], inf_all[gather]))
    ends = np.cumsum(np.bincount(path[vertex], minlength=n)).tolist()
    for k, (lo, hi) in enumerate(zip([0] + ends, ends)):
        if not dead[k]:
            outcomes[k] = [starts[k]] + fibers[lo:hi]
    return outcomes


def _compose(p1, p2):
    """Permutation of the concatenated loop: first p1, then p2."""
    return tuple(p2[i] for i in p1)


def _check_sphere_relation(d, perms, order):
    """Loops multiplied in angular order must contract through t' = infinity
    (which is not a critical value in the target chart), giving the identity."""
    for ordering in (list(order), list(reversed(order))):
        acc = tuple(range(d))
        for i in ordering:
            acc = _compose(acc, perms[i])
        if acc == tuple(range(d)):
            return
    raise ConsistencyError("sphere relation violated: loop product is not the identity")


def _cycles_at_preimages(perm, entry, preimages):
    """The cycle of ``perm`` at each preimage of a critical value.

    ``preimages`` are the (point, local degree) pairs over the value, and
    ``entry`` is the (z, inf) fiber, in base-sheet order, where the loop
    enters the value's disc.  The cycle type must be the exact local
    degrees; each cycle goes to the preimage nearest its sheets (summed chordal
    distance), whose local degree must be its length, and no two to the same.
    """
    cycles = _cycles(perm, range(len(perm)))
    observed = sorted(len(c) for c in cycles)
    exact = sorted(e for _p, e in preimages)
    if observed != exact:
        raise ConsistencyError(
            "ramification mismatch at a critical value: monodromy %s vs exact %s"
            % (observed, exact)
        )
    dist = chordal(*entry, *point_arrays([p for p, _e in preimages]))
    cost = np.array([dist[list(c)].sum(axis=0) for c in cycles])
    rows, cols = linear_sum_assignment(cost)
    out = [None] * len(preimages)
    for i, j in zip(rows, cols):
        point, e = preimages[j]
        if len(cycles[i]) != e:
            raise ConsistencyError(
                "a cycle of length %d sits at %s, of local degree %d" % (len(cycles[i]), point, e)
            )
        out[j] = cycles[i]
    return out


def monodromy(curve):
    """Permutation of the base fiber for a loop around each critical value,
    and samples from the fibers at the loops' vertices.

    The loop around b_i is l_i . c_i . l_i^-1, l_i its leg and c_i its
    circle, so only the legs (from the base fiber, in one batched call) and
    then the circles (from the legs' end fibers, in a second) are tracked.
    Both keep base-sheet order, so the sheet that leaves base point i
    reaches entry point i, the circle takes it to entry point j, and the
    leg back takes entry point j to base point j: the loop's permutation is
    the circle's, read in the entry fiber's labels.  The circle ends on the
    entry fiber's own values, so j is the one entry point that point i equals.

    A component of bidegree (r, r) gets n * r samples from n fibers, and its
    relation needs (r + 1)^2 + 1 of them; n = 4d + 4 gives that for every
    r < d.  The n fibers are evenly spaced over the circles' arc ends, the
    entry point first, and the k-th gives its point on sheet k mod d as
    abscissa.
    """
    d = curve.degree
    plan = _plan_loops(curve)
    base_fiber = fiber_at(curve, plan.basepoint)
    legs = _track(curve.matrix, d, [base_fiber] * len(plan.legs), plan.legs)
    _raise_first(legs)
    entries = [fibers[-1] for fibers in legs]
    circles = _track(curve.matrix, d, entries, plan.circles)
    _raise_first(circles)
    # perm[i] = j: the sheet that entered the disc at entry point i ends at
    # entry point j, the one it equals
    perms = []
    for fibers, (ez, einf) in zip(circles, entries):
        z, inf = fibers[-1]
        perms.append(tuple(((z[:, None] == ez) & (inf[:, None] == einf)).argmax(axis=1).tolist()))
    _check_sphere_relation(d, perms, plan.order)
    cycles = [
        _cycles_at_preimages(perm, entry, pre)
        for perm, entry, pre in zip(perms, entries, curve.preimages)
    ]
    vertices = [fibers[j] for fibers, corners in zip(circles, plan.corners) for j in corners]
    n = 4 * d + 4
    z, inf = map(np.stack, zip(*[vertices[k * len(vertices) // n] for k in range(n)]))
    return MonodromyAction(
        basepoint=plan.basepoint,
        permutations=perms,
        cycles=cycles,
        samples=((z, inf), [k % d for k in range(n)]),
    )


def _raise_first(outcomes):
    """Raise the first error among ``_track``'s outcomes."""
    for fibers in outcomes:
        if isinstance(fibers, Exception):
            raise fibers


# -- components --------------------------------------------------------------------


def _orbits(n, perms):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in perms:
        for i, j in enumerate(p):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: (len(g), g))


def _cycles(perm, points):
    """The cycles of ``perm`` on ``points``, a set it maps to itself."""
    seen = set()
    out = []
    for i in points:
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(tuple(cycle))
    return out


def _on_pairs(perm):
    """The permutation of ordered pairs (i, j), indexed i * d + j."""
    d = len(perm)
    return tuple(perm[i] * d + perm[j] for i in range(d) for j in range(d))


def _sheet_samples(orbit, samples):
    """(x, y) on the component at each sample abscissa x, once per y, as the
    (z, inf) pairs of the x and of the y."""
    (z, inf), abscissae = samples
    sheets = {}
    for i, j in orbit:
        sheets.setdefault(i, []).append(j)
    k, i, j = np.array([(k, i, j) for k, i in enumerate(abscissae) for j in sheets[i]]).T
    return (z[k, i], inf[k, i]), (z[k, j], inf[k, j])


def _vanishing_relation(points, r):
    """The relation of x-degree r and y-degree r vanishing on the samples, or None.

    ``points`` holds the (z, inf) pairs of the samples' x and y.  Each
    sample (x, y) gives a row of chordally normalized projective monomials
    u^a v^(r-a) u'^k v'^(r-k), with x = u/v and y = u'/v', so x = infinity
    and y = infinity need no special casing.  A relation of x-degree s,
    times v^(r-s), is one among the columns a <= s, so the component has
    x-degree exactly r when the first r(r + 1) columns (s = r - 1) have no
    null vector and the whole matrix (s = r) has one.  That null vector is
    returned as an (r + 1, r + 1) array of the coefficients of x^a y^k.
    """

    def monomials(w, inf):
        """u^k v^(r-k) / norm for k = 0..r, one row per point."""
        s = np.maximum(1.0, np.abs(w))
        u, v = np.where(inf, 1.0 + 0j, w / s), np.where(inf, 0j, 1.0 / s)
        norm = (np.abs(u) ** 2 + np.abs(v) ** 2) ** (r / 2.0)
        k = np.arange(r + 1)
        return u[:, None] ** k * v[:, None] ** (r - k) / norm[:, None]

    x, y = points
    mx, my = monomials(*x), monomials(*y)
    A = (mx[:, :, None] * my[:, None, :]).reshape(len(mx), -1)

    # a true vanishing relation sits at machine precision; mere bad
    # conditioning of the moment matrix bottoms out around 1e-8
    def has_null(sv):
        return sv[-1] < 1e-11 * sv[0]

    if has_null(np.linalg.svd(A[:, : r * (r + 1)], compute_uv=False)):
        return None
    _u, sv, vh = np.linalg.svd(A, full_matrices=False)
    if not has_null(sv):
        return None
    return vh[-1].conj().reshape(r + 1, r + 1)


def components(curve, mon):
    """Component certificates from the orbits of the monodromy on pairs.  With
    three orbits or more, each off-diagonal one's vanishing relation confirms r
    as its samples' x-degree.  The diagonal (on x = y) and, with two orbits, the
    other one (of factor P / (x - y) and bidegree (d - 1, d - 1)) are not fitted."""
    d = curve.degree
    pair_perms = [_on_pairs(p) for p in mon.permutations]
    orbs = _orbits(d * d, pair_perms)
    if len(orbs[0]) != d or any(q % (d + 1) for q in orbs[0]):
        raise ConsistencyError("the diagonal is not an orbit of its own")
    # per critical value, the preimage whose cycle holds each sheet
    at = [{i: j for j, cycle in enumerate(cycles) for i in cycle} for cycles in mon.cycles]
    certs = []
    for orbit in orbs:
        r = len(orbit) // d
        if r * d != len(orbit):
            raise ConsistencyError("an orbit of pairs does not cover every sheet equally")
        ram = []
        total_branching = 0
        for perm, sheet_at, pre in zip(pair_perms, at, curve.preimages):
            cycles = _cycles(perm, orbit)
            total_branching += len(orbit) - len(cycles)
            # a cycle on pairs moves its first sheets along one cycle of the
            # permutation of sheets, so it is a branch over that cycle's preimage
            lengths = [[] for _ in pre]
            for c in cycles:
                lengths[sheet_at[c[0] // d]].append(len(c))
            ram += [sorted(n // e for n in ns) for ns, (_p, e) in zip(lengths, pre)]
        if total_branching % 2 != 0:
            raise ConsistencyError("Riemann-Hurwitz parity violated for an orbit")
        genus = 1 - len(orbit) + total_branching // 2
        if genus < 0:
            raise ConsistencyError("negative genus computed for a component")
        pairs = tuple(divmod(q, d) for q in orbit)
        relation = None
        if len(orbs) > 2 and orbit is not orbs[0]:
            relation = _vanishing_relation(_sheet_samples(pairs, mon.samples), r)
            if relation is None:
                raise ConsistencyError(
                    "projection degrees disagree: the samples do not have x-degree %s" % r
                )
        certs.append(
            ComponentCertificate(
                orbit=pairs,
                bidegree=(r, r),
                ramification=ram,
                genus=genus,
                is_diagonal=orbit is orbs[0],
                relation=relation,
            )
        )
    return certs


# -- exact reconstruction --------------------------------------------------------------


def _x_minus_y(ctx):
    return BiPoly(ctx, [[ctx.zero, -ctx.one], [ctx.one, ctx.zero]])


def reconstruct_component(curve, cert):
    """Exact factor of P matching the component, or None.

    The diagonal's factor is x - y, which divides P since build_graph
    checked P antisymmetric.  An off-diagonal orbit with r = d - 1 holds
    every off-diagonal pair, so its factor is the exact P / (x - y).  Any
    other candidate is the component's vanishing relation, divided by its
    largest entry and rationalized into the base field entry by entry.  It
    is accepted only on exact divisibility of P and bidegree (r, r); any
    failure leaves the certificate numeric-only.
    """
    ctx = curve.G.ctx
    if cert.is_diagonal:
        return _x_minus_y(ctx)
    if cert.r == curve.degree - 1:
        return curve.P.divide_exact(_x_minus_y(ctx)).normalized()
    rel = cert.relation / cert.relation.flat[np.abs(cert.relation).argmax()]
    rows = [[rationalize_into_field(ctx, complex(c)) for c in row] for row in rel]
    if any(c is None for row in rows for c in row):
        return None
    cand = BiPoly(ctx, rows).normalized()
    r = cert.r
    if curve.P.divide_exact(cand) is None or cand.bidegree != (r, r):
        return None
    return cand


def genus_zero_parametrization_check(cert):
    """PASS exactly when the component's normalization is rational."""
    return "PASS" if cert.genus == 0 else "FAIL"


# -- orchestration --------------------------------------------------------------------


def analyze(G, reconstruct=True):
    """Full decomposition report for the graph curve of G.

    The loop layout is deterministic, so a tracking or root-solve failure
    would recur on a second attempt; it is raised at once.
    """
    curve = build_graph(G)
    mon = monodromy(curve)
    certs = components(curve, mon)
    if reconstruct:
        for cert in certs:
            cert.exact_poly = reconstruct_component(curve, cert)
        _verify_factorization(curve, certs)
    report = {
        "degree": curve.degree,
        "branch_points": [point_to_json(p) for p in curve.branch_locus],
        "basepoint": point_to_json(_from_target(curve.pole, mon.basepoint)),
        "components": [
            {
                "bidegree": list(cert.bidegree),
                "genus": cert.genus,
                "is_diagonal": cert.is_diagonal,
                "ramification": [list(ct) for ct in cert.ramification],
                "rational_normalization": genus_zero_parametrization_check(cert),
                **(
                    {"exact_poly": [[element_to_json(c) for c in row]
                                    for row in cert.exact_poly.rows]}
                    if cert.exact_poly is not None
                    else {}
                ),
            }
            for cert in certs
        ],
    }
    return report, curve, mon, certs


def _verify_factorization(curve, certs):
    """If every factor certified, the product must reproduce P up to scale."""
    if any(c.exact_poly is None for c in certs):
        return
    prod = None
    for c in certs:
        prod = c.exact_poly if prod is None else prod * c.exact_poly
    if prod.normalized() != curve.P.normalized():
        raise ConsistencyError("certified factors do not multiply back to P")
