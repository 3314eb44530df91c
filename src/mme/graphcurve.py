"""Decomposition of the graph curve {G(x) = G(y)} by numerical monodromy.

The first projection of the curve is a degree-d covering away from the
preimages of the critical values of G.  Loops around those points permute
the fiber; the orbits of the generated permutation group are the
irreducible components, the cycle types give the ramification profiles,
and Riemann-Hurwitz gives each component's geometric genus.  Monodromy
results are cross-checked against the exact local multiplicities and, when
rationalization succeeds, certified by exact polynomial division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .numeric import (
    INF,
    ConsistencyError,
    RootFindingError,
    chordal,
    chordal_matrix,
    is_inf,
    min_pairwise_chordal,
    named_rng,
    projective_roots,
    projective_roots_batch,
    rationalize_into_field,
)
from .polys import BiPoly, Poly, graph_bipoly
from .ratmaps import MapError, Moebius, RationalMap, critical_data

HUGE_BRANCH_MODULUS = 1e6
OUTLIER_SPREAD_RATIO = 25.0
DEDUP_TOL = 1e-7
MATCH_TOL = 1e-6


class TrackingError(RuntimeError):
    pass


class BasepointError(RuntimeError):
    pass


@dataclass
class BranchPoint:
    """A point of the branch locus with the exact local data of G there."""

    point: complex  # in the working chart, always finite
    e_x: int  # local degree of the working map at the point
    value_partition: tuple  # local degrees of G over v = G(point), summing to d

    def predicted_cycle_type(self):
        """Cycle type of the fiber permutation forced by the local degrees.

        Near a preimage y* of v with local degree e, the curve has
        gcd(e_x, e) local branches, on each of which the projection has
        local degree e / gcd(e_x, e).
        """
        out = []
        for e in self.value_partition:
            g = math.gcd(self.e_x, e)
            out.extend([e // g] * g)
        return tuple(sorted(out))


@dataclass
class GraphCurve:
    G: RationalMap  # the map as given
    P: BiPoly  # exact defining polynomial of the curve, original chart
    chart: Moebius  # working chart; identity when no rotation was needed
    work_map: RationalMap  # G composed with the chart
    P_work: BiPoly  # defining polynomial in the working chart
    branch: list  # list of BranchPoint, working chart
    branch_locus: list  # original-chart branch points (complex or INF)
    basepoint: complex = 0j
    base_center: complex = 0j
    base_radius: float = 1.0
    seed: int = 0
    _fiber_matrix: np.ndarray = field(default=None, repr=False)

    @property
    def degree(self):
        return self.G.degree

    def fiber_matrix(self):
        if self._fiber_matrix is None:
            d = self.degree
            m = self.P_work.numeric_matrix()
            full = np.zeros((d + 1, d + 1), dtype=complex)
            full[: m.shape[0], : m.shape[1]] = m
            self._fiber_matrix = full
        return self._fiber_matrix


@dataclass
class LoopPlan:
    """Keyhole loops from the basepoint, one per branch point."""

    order: list  # branch indices sorted by argument about the basepoint
    radii: list  # disc radius per branch point (indexed like curve.branch)
    waypoints: list  # polyline per branch index, starting/ending at basepoint


@dataclass
class MonodromyAction:
    fiber: list  # base fiber (complex or INF), length d
    permutations: list  # one tuple per branch point, in curve.branch order
    loop_plan: LoopPlan
    diagonal_index: int


@dataclass
class ComponentCertificate:
    orbit: tuple  # fiber indices, sorted
    bidegree: tuple  # (r1, r2); r1 from the orbit, r2 from x-degree recovery
    ramification: list  # per branch point, partition of r (local degrees)
    genus: int
    is_diagonal: bool
    exact_poly: BiPoly = None  # original-chart exact factor when certified

    @property
    def r(self):
        return len(self.orbit)


# -- construction -------------------------------------------------------------------


def _cluster_points(points, tol):
    """Greedy chordal clustering; returns [(representative, count)]."""
    clusters = []
    for p in points:
        for c in clusters:
            if chordal(c[0], p) < tol:
                c[1] += 1
                break
        else:
            clusters.append([p, 1])
    return [(c[0], c[1]) for c in clusters]


def _branch_data(G):
    """Branch points of the projection with exact local degrees.

    Returns (branch_list, ok) where ok is False when any branch point is
    infinite or too large for stable tracking.
    """
    cd = critical_data(G)
    branch = []
    seen = []
    for v, group in cd.value_groups:
        # local degree of G at each critical preimage is exact (square-free
        # decomposition of the Wronskian); the remaining preimages are simple
        crit = [(p, m + 1) for p, m in group]
        pre = G.preimages(v)
        buckets = [0] * len(crit)
        simple = []
        for root in pre:
            dists = [chordal(root, p) for p, _ in crit]
            j = int(np.argmin(dists)) if dists else -1
            if dists and dists[j] < 1e-3:
                buckets[j] += 1
            else:
                simple.append(root)
        if [e for _, e in crit] != buckets:
            raise TrackingError(
                "preimage clusters do not match the exact local degrees at a critical value"
            )
        if simple and min_pairwise_chordal(simple) < 1e-4 and len(simple) > 1:
            raise TrackingError("simple preimages of a critical value are too close")
        partition = tuple(sorted([e for _, e in crit] + [1] * len(simple)))
        if sum(partition) != G.degree:
            raise ConsistencyError("preimage count of a critical value is not the degree")
        # every preimage of a critical value is a branch point of the
        # projection: the fiber there carries a multiple root even when the
        # point itself is unramified for G
        for p, e in crit + [(s, 1) for s in simple]:
            if any(chordal(p, q) < DEDUP_TOL for q in seen):
                raise ConsistencyError("branch point shared between two critical values")
            seen.append(p)
            branch.append(BranchPoint(point=p, e_x=e, value_partition=partition))
    ok = all((not is_inf(b.point)) and abs(b.point) < HUGE_BRANCH_MODULUS for b in branch)
    if ok and len(branch) >= 5:
        # a far outlier stretches the basepoint circle until loops to the
        # main cluster become ill-conditioned; rotate the chart instead
        pts = np.array([b.point for b in branch])
        center = complex(np.median(pts.real), np.median(pts.imag))
        dists = np.abs(pts - center)
        med = float(np.median(dists))
        if med > 0 and float(dists.max()) > OUTLIER_SPREAD_RATIO * med:
            ok = False
    return branch, ok


def build_graph(G, seed=0):
    """Exact defining polynomial plus a tracking-ready chart and basepoint."""
    if G.degree < 2:
        raise MapError("graph-curve analysis requires degree >= 2")
    ctx = G.ctx
    P = graph_bipoly(G.num, G.den)
    if not P.is_antisymmetric():
        raise ConsistencyError("defining polynomial is not antisymmetric")
    dx, dy = P.bidegree
    if dx != G.degree or dy != G.degree:
        raise ConsistencyError("defining polynomial has wrong bidegree")
    diag = BiPoly(ctx, [[ctx.zero, -ctx.one], [ctx.one, ctx.zero]])  # x - y
    if P.divide_exact(diag) is None:
        raise ConsistencyError("the diagonal does not divide the defining polynomial")

    rng = named_rng(seed, "chart")
    chart = Moebius.identity(ctx)
    work = G
    branch = None
    for attempt in range(25):
        try:
            branch, ok = _branch_data(work)
        except (ConsistencyError, MapError):
            ok = False
        if ok:
            break
        # rotate the chart: precompose with a random small rational Moebius
        ints = rng.integers(-9, 10, size=4)
        try:
            chart = Moebius.from_rationals(ctx, int(ints[0]), int(ints[1]), int(ints[2]), int(ints[3]))
        except MapError:
            continue
        work = G.compose(chart.as_rational_map())
    else:
        raise BasepointError("no chart with a finite well-separated branch locus found")

    P_work = graph_bipoly(work.num, work.den)
    # original-chart branch locus, for reporting; points carried to within
    # ~1e-8 of infinity by the chart are the chart's pole
    locus = []
    for b in branch:
        v = chart.apply_numeric(b.point)
        locus.append(INF if chordal(v, INF) < 1e-8 else v)

    curve = GraphCurve(
        G=G,
        P=P,
        chart=chart,
        work_map=work,
        P_work=P_work,
        branch=branch,
        branch_locus=locus,
        seed=seed,
    )
    _choose_basepoint(curve)
    return curve


def _choose_basepoint(curve):
    pts = np.array([b.point for b in curve.branch])
    center = complex(pts.mean())
    spread = max(abs(p - center) for p in pts)
    if spread == 0:
        spread = 1.0
    sep = min(
        abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1 :]
    ) if len(pts) > 1 else spread
    radius = 1.8 * spread + sep
    rng = named_rng(curve.seed, "basepoint")
    for _ in range(100):
        theta = float(rng.uniform(0, 2 * np.pi))
        x0 = center + radius * np.exp(1j * theta)
        if min(abs(x0 - p) for p in pts) < 0.1 * sep:
            continue
        try:
            fiber = fiber_at(curve, x0)
        except TrackingError:
            continue
        curve.basepoint = x0
        curve.base_center = center
        curve.base_radius = radius
        return fiber
    raise BasepointError(
        "basepoint selection failed after 100 draws (seed %d); rescale the map"
        % curve.seed
    )


def fiber_at(curve, x0):
    """The d points y with G(y) = G(x0), as roots in y of P(x0, y)."""
    d = curve.degree
    fiber = projective_roots(_fiber_coeffs(curve.fiber_matrix(), [x0])[0], d)
    if min_pairwise_chordal(fiber) < 10 * MATCH_TOL:
        raise TrackingError("fiber is nearly degenerate: x0 too close to the branch locus")
    if not any(chordal(y, x0) < MATCH_TOL for y in fiber):
        raise TrackingError("fiber does not contain the diagonal trace")
    return fiber


def _fiber_coeffs(matrix, xs):
    """Coefficients in y of P(x, y) at each abscissa, one row per x."""
    powers = np.asarray(xs, dtype=complex)[:, None] ** np.arange(matrix.shape[0])
    # a stack of row-times-matrix products rounds like each product alone;
    # one matrix-matrix product would not
    return np.matmul(powers[:, None, :], matrix)[:, 0, :]


# -- loops and tracking ----------------------------------------------------------------


def _segment_clears(a, b, center, clearance):
    """Distance from center to segment [a, b] exceeds clearance."""
    ab = b - a
    t = ((center - a) * ab.conjugate()).real / max(abs(ab) ** 2, 1e-300)
    t = min(1.0, max(0.0, t))
    return abs(center - (a + t * ab)) > clearance


def _keyhole(x0, b, rho, n_circle=24):
    """Polyline basepoint -> disc boundary -> full circle -> back."""
    u = (b - x0) / abs(b - x0)
    entry = b - rho * u
    phi0 = np.angle(entry - b)
    circle = [b + rho * np.exp(1j * (phi0 + 2 * np.pi * k / n_circle)) for k in range(n_circle + 1)]
    return [x0, entry] + circle[1:] + [x0]


def _plan_loops(curve, seed):
    pts = [b.point for b in curve.branch]
    n = len(pts)
    if n == 1:
        seps = [2 * abs(pts[0] - curve.basepoint)]
    else:
        seps = [min(abs(p - q) for q in pts if q is not p) for p in pts]
    rng = named_rng(seed, "loops")
    eps = 1.0 / 3.0
    x0 = curve.basepoint
    for _round in range(8):
        radii = [eps * s for s in seps]
        ok = True
        for i, b in enumerate(pts):
            entry = b + radii[i] * (x0 - b) / abs(x0 - b)
            for j, other in enumerate(pts):
                if j == i:
                    continue
                if not _segment_clears(x0, entry, other, radii[j] * 1.5):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            order = sorted(range(n), key=lambda i: (np.angle(pts[i] - x0), abs(pts[i] - x0)))
            waypoints = [_keyhole(x0, pts[i], radii[i]) for i in range(n)]
            return LoopPlan(order=order, radii=radii, waypoints=waypoints)
        # shrink the discs, and occasionally redraw the basepoint angle
        eps /= 2.0
        if _round >= 3:
            theta = float(rng.uniform(0, 2 * np.pi))
            x0 = curve.base_center + curve.base_radius * np.exp(1j * theta)
    raise BasepointError("could not lay out non-overlapping loops; rescale the map")


def _walk(legs, fiber):
    """One path of the lockstep tracker, as a generator.

    A path is a list of polylines (legs) followed one after another; the
    step size restarts at each leg.  For every attempted step the walk
    yields (abscissa, current fiber) and is sent back (new fiber, chordal
    cost matrix current x new, separation of the new fiber).  Returns the
    fiber at the end of each leg.
    """
    ends = []
    for waypoints in legs:
        lengths = [abs(b - a) for a, b in zip(waypoints, waypoints[1:])]
        step0 = sum(lengths) / 64.0
        for (a, b), seg_len in zip(zip(waypoints, waypoints[1:]), lengths):
            if seg_len == 0:
                continue
            h0 = min(1.0, step0 / seg_len)
            t, h = 0.0, h0
            clean = 0
            while t < 1.0 - 1e-15:
                h = min(h, 1.0 - t)
                new_fiber, cost, sep = yield a + (t + h) * (b - a), fiber
                rows, cols = linear_sum_assignment(cost)
                moved = cost[rows, cols].max()
                if moved >= 0.4 * sep:
                    h /= 2.0
                    clean = 0
                    if h * seg_len < 1e-12:
                        raise TrackingError("path-tracking step underflow")
                    continue
                # rows is 0..d-1 in order for a square cost matrix
                fiber = [new_fiber[c] for c in cols]
                t += h
                clean += 1
                if clean >= 4:
                    h = min(2 * h, h0)
                    clean = 0
        ends.append(fiber)
    return ends


def _track(matrix, d, fiber, paths):
    """Continue ``fiber`` along every path (a list of legs) in lockstep.

    Each round solves the fibers at the next abscissa of every active path
    in one batched root solve; each path then matches, accepts or halves its
    step exactly as it would alone.  Returns per path the fibers at the ends
    of its legs, or the TrackingError or RootFindingError that stopped it.
    Callers raise errors in path order, so the paths after a failed one are
    dropped (None).
    """
    walks = [_walk(legs, fiber) for legs in paths]
    outcomes = [None] * len(walks)
    pending = {}  # path index -> (abscissa, current fiber), in path order
    cut = len(walks)  # the first failed path; later ones are dropped

    def fail(k, exc):
        nonlocal cut
        outcomes[k], cut = exc, k
        for j in [j for j in pending if j > k]:
            del pending[j]

    def send(k, message):
        if k > cut:
            return
        try:
            pending[k] = walks[k].send(message)
        except StopIteration as stop:
            outcomes[k] = stop.value
        except TrackingError as exc:
            fail(k, exc)

    def advance(keys, steps):
        try:
            new = projective_roots_batch(_fiber_coeffs(matrix, [x for x, _f in steps]), d)
        except RootFindingError as exc:
            if len(keys) == 1:
                fail(keys[0], exc)
            else:
                # solve the round path by path to find the paths that fail
                for k, step in zip(keys, steps):
                    if k < cut:
                        advance([k], [step])
            return
        cost = chordal_matrix([f for _x, f in steps], new)
        sep = min_pairwise_chordal(new)
        for i, k in enumerate(keys):
            send(k, (new[i], cost[i], sep[i]))

    for k in range(len(walks)):
        send(k, None)
    while pending:
        keys = list(pending)
        advance(keys, [pending.pop(k) for k in keys])
    return outcomes


def _match_permutation(end_fiber, base_fiber):
    """perm[i] = j: the sheet that started at i ends at base sheet j."""
    cost = chordal_matrix(end_fiber, base_fiber)
    rows, cols = linear_sum_assignment(cost)
    perm = [0] * len(base_fiber)
    for i, j in zip(rows, cols):
        if cost[i, j] > MATCH_TOL:
            raise TrackingError("loop endpoint does not return to the base fiber")
        others = [cost[i, k] for k in range(len(base_fiber)) if k != j]
        if others and min(others) < cost[i, j] + MATCH_TOL:
            raise TrackingError("ambiguous fiber match after a loop")
        perm[i] = int(j)
    return tuple(perm)


def _compose(p1, p2):
    """Permutation of the concatenated loop: first p1, then p2."""
    return tuple(p2[i] for i in p1)


def _check_sphere_relation(d, perms, order):
    """Loops multiplied in angular order must contract through infinity
    (which is unramified in the working chart), giving the identity."""
    for ordering in (list(order), list(reversed(order))):
        acc = tuple(range(d))
        for i in ordering:
            acc = _compose(acc, perms[i])
        if acc == tuple(range(d)):
            return
    raise ConsistencyError("sphere relation violated: loop product is not the identity")


def monodromy(curve):
    """Permutation of the base fiber for a loop around each branch point."""
    d = curve.degree
    plan = _plan_loops(curve, curve.seed)
    x0 = plan.waypoints[0][0] if plan.waypoints else curve.basepoint
    base_fiber = fiber_at(curve, x0)
    paths = [[wp] for wp in plan.waypoints]
    perms = []
    for ends in _track(curve.fiber_matrix(), d, base_fiber, paths):
        if isinstance(ends, Exception):
            raise ends
        perms.append(_match_permutation(ends[-1], base_fiber))
    _check_sphere_relation(d, perms, plan.order)
    diag = [i for i, y in enumerate(base_fiber) if chordal(y, x0) < MATCH_TOL]
    if len(diag) != 1:
        raise ConsistencyError("diagonal trace in the base fiber is not unique")
    return MonodromyAction(
        fiber=base_fiber, permutations=perms, loop_plan=plan, diagonal_index=diag[0]
    )


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


def _cycle_type(perm, orbit):
    orbit = set(orbit)
    seen = set()
    out = []
    for i in orbit:
        if i in seen:
            continue
        length = 0
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        out.append(length)
    return sorted(out)


def _verify_cycle_types(curve, mon):
    """Observed full cycle type per branch point vs the exact local data."""
    d = curve.degree
    full = tuple(range(d))
    for b, perm in zip(curve.branch, mon.permutations):
        observed = tuple(sorted(_cycle_type(perm, full)))
        predicted = b.predicted_cycle_type()
        if observed != predicted:
            raise ConsistencyError(
                "ramification mismatch at branch point %s: monodromy %s vs exact %s"
                % (b.point, observed, predicted)
            )


def _x_degree_samples(d):
    return 2 * d + 3


def _reconstruction_samples(r, d):
    return 2 * (r + d) + 7


def _track_circles(curve, mon, sizes):
    """Fiber continuation around the basepoint circles with the given sample
    counts, tracked in one lockstep run.

    Returns {n: (xs, fibers)}, where fibers[k][i] is the continuation of
    base sheet i at abscissa xs[k], or {n: error} for a circle that failed.
    A circle of n samples is n chords, each followed as its own leg.  The
    circle encloses every branch point, so its end fiber must match the base
    fiber by the identity permutation.  ``sizes`` come in the order the
    circles are used; the circles after one that fails tracking are left out.
    """
    sizes = list(dict.fromkeys(sizes))
    c, R = curve.base_center, curve.base_radius
    x0 = mon.loop_plan.waypoints[0][0]
    phi0 = np.angle(x0 - c)
    grids = [
        [c + R * np.exp(1j * (phi0 + 2 * np.pi * k / n)) for k in range(n + 1)] for n in sizes
    ]
    paths = [[[a, b] for a, b in zip(xs, xs[1:])] for xs in grids]
    outcomes = _track(curve.fiber_matrix(), curve.degree, mon.fiber, paths)
    identity = tuple(range(curve.degree))
    circles = {}
    for n, xs, ends in zip(sizes, grids, outcomes):
        if ends is None:
            break
        if isinstance(ends, Exception):
            circles[n] = ends
        elif _match_permutation(ends[-1], mon.fiber) != identity:
            circles[n] = ConsistencyError("circle of basepoints does not return to the identity")
        else:
            circles[n] = (xs[:-1], [list(mon.fiber)] + ends[:-1])
    return circles


def _circle_samples(circle):
    """The (xs, fibers) of a tracked circle; raises the error that stopped it."""
    if isinstance(circle, Exception):
        raise circle
    return circle


def _x_degree_from_samples(curve, orbit, xs, fibers):
    """Minimal x-degree of a bivariate vanishing on the orbit's samples.

    Interpolation through chordally normalized projective monomials; the
    smallest x-degree with a numerical nullspace is the degree of the
    component in x, computed independently of the orbit size.
    """
    r = len(orbit)
    c, R = curve.base_center, curve.base_radius
    d = curve.degree
    rows_uv = []
    for x, fiber in zip(xs, fibers):
        xt = (x - c) / R
        for i in orbit:
            y = fiber[i]
            if is_inf(y):
                u, v = 1.0 + 0j, 0j
            else:
                s = max(1.0, abs(y))
                u, v = y / s, 1.0 / s
            norm = (abs(u) ** 2 + abs(v) ** 2) ** (r / 2.0)
            rows_uv.append((xt, [u**k * v ** (r - k) / norm for k in range(r + 1)]))
    for s in range(0, d + 1):
        if len(rows_uv) < (s + 1) * (r + 1) + 1:
            break
        A = np.array([[xt**a * m for a in range(s + 1) for m in mono] for xt, mono in rows_uv])
        sv = np.linalg.svd(A, compute_uv=False)
        # a true vanishing relation sits at machine precision; mere bad
        # conditioning of the moment matrix bottoms out around 1e-8
        if sv[-1] < 1e-11 * sv[0]:
            return s
    return None


def components(curve, mon, circle=None):
    """Component certificates from the monodromy orbits.

    ``circle`` is the outcome of the 2d+3 basepoint circle (see
    :func:`_track_circles`) for the x-degree check; None skips that check.
    """
    d = curve.degree
    orbs = _orbits(d, mon.permutations)
    if sum(len(o) for o in orbs) != d:
        raise ConsistencyError("orbit sizes do not sum to the degree")
    _verify_cycle_types(curve, mon)
    if circle is not None:
        xs, fibers = _circle_samples(circle)
    certs = []
    for orbit in orbs:
        r = len(orbit)
        ram = []
        total_branching = 0
        for perm in mon.permutations:
            ct = _cycle_type(perm, orbit)
            ram.append(ct)
            total_branching += sum(e - 1 for e in ct)
        if total_branching % 2 != 0:
            raise ConsistencyError("Riemann-Hurwitz parity violated for an orbit")
        genus = 1 - r + total_branching // 2
        if genus < 0:
            raise ConsistencyError("negative genus computed for a component")
        r2 = r
        if circle is not None:
            r2 = _x_degree_from_samples(curve, orbit, xs, fibers)
            if r2 is None or r2 != r:
                raise ConsistencyError(
                    "projection degrees disagree: fiber size %s vs x-degree %s" % (r, r2)
                )
        certs.append(
            ComponentCertificate(
                orbit=orbit,
                bidegree=(r, r2),
                ramification=ram,
                genus=genus,
                is_diagonal=mon.diagonal_index in orbit,
            )
        )
    if sum(c.r for c in certs) != d:
        raise ConsistencyError("bidegrees do not sum to the degree")
    diag = [c for c in certs if c.is_diagonal]
    if len(diag) != 1 or diag[0].r != 1:
        raise ConsistencyError("the diagonal did not appear as a size-one orbit")
    return certs


# -- exact reconstruction --------------------------------------------------------------


def reconstruct_component(curve, cert, circle, max_den=10**6):
    """Exact factor of P matching the component, or None.

    ``circle`` is the outcome of the 2(r+d)+7 basepoint circle (see
    :func:`_track_circles`); the diagonal needs none.  The orbit's sheets
    are sampled at circle abscissas (mapped back to the original chart),
    and L(x) * prod(y - y_i(x)) is interpolated per y-coefficient, where L
    is P's exact leading coefficient in y.  That product is polynomial in x
    even for maps whose factors are not monic in y; the spurious content
    L/l_o is removed by an exact gcd.  The candidate is accepted only on
    exact divisibility; any failure leaves the certificate numeric-only.
    """
    ctx = curve.G.ctx
    if cert.is_diagonal:
        poly = BiPoly(ctx, [[ctx.zero, -ctx.one], [ctx.one, ctx.zero]])
        return poly if curve.P.divide_exact(poly) is not None else None
    r, d = cert.r, curve.degree
    deg_x = r + d  # degree bound of the L-multiplied coefficients
    xs, fibers = _circle_samples(circle)
    sigma = curve.chart
    samples = []
    for x, fib in zip(xs, fibers):
        xo = sigma.apply_numeric(x)
        if is_inf(xo) or abs(xo) > 1e5:
            continue
        ys = []
        for i in cert.orbit:
            yo = sigma.apply_numeric(fib[i])
            if is_inf(yo) or abs(yo) > 1e5:
                break
            ys.append(yo)
        else:
            samples.append((complex(xo), ys))
    if len(samples) < deg_x + 4:
        return None
    L = curve.P.y_slices()[-1]
    xo = np.array([s[0] for s in samples])
    lvals = np.array([L.eval_numeric(x) for x in xo])
    prod_coeffs = np.array([np.poly(s[1]) for s in samples])  # descending in y
    center = complex(xo.mean())
    scale = max(1e-9, float(np.max(np.abs(xo - center))))
    xt = (xo - center) / scale
    vander = np.vander(xt, deg_x + 1, increasing=True)
    slices = []
    for k in range(r, -1, -1):  # build y-slices in ascending y-degree
        vals = lvals * prod_coeffs[:, k]
        fit, res, _rank, _sv = np.linalg.lstsq(vander, vals, rcond=None)
        pred = vander @ fit
        err = np.linalg.norm(pred - vals)
        if err > 1e-6 * max(1.0, np.linalg.norm(vals)):
            return None
        # rescale from the fit variable to plain x, then rationalize
        t = np.polynomial.polynomial.Polynomial(fit)
        x_poly = t(np.polynomial.polynomial.Polynomial([-center / scale, 1.0 / scale]))
        out = []
        for v in x_poly.coef:
            elt = rationalize_into_field(ctx, complex(v), max_den=max_den)
            if elt is None:
                return None
            out.append(elt)
        slices.append(Poly(ctx, out))
    cand = BiPoly.from_y_slices(ctx, slices)
    if cand.is_zero():
        return None
    # strip the content: gcd of the x-slices removes the factor L/l_o
    content = None
    for sl in slices:
        if sl.is_zero():
            continue
        content = sl if content is None else content.gcd(sl)
    if content is not None and content.degree > 0:
        reduced = [
            sl.divide_exact(content) if not sl.is_zero() else sl for sl in slices
        ]
        if any(sl is None for sl in reduced):
            return None
        cand = BiPoly.from_y_slices(ctx, reduced)
    cand = cand.normalized()
    if curve.P.divide_exact(cand) is None:
        return None
    if cand.bidegree != (r, r):
        return None
    return cand


def genus_zero_parametrization_check(cert):
    """PASS exactly when the component's normalization is rational."""
    return "PASS" if cert.genus == 0 else "FAIL"


# -- orchestration --------------------------------------------------------------------


def analyze(G, seed=0, reconstruct=True, check_x_degree=True, retries=3):
    """Full decomposition report for the graph curve of G.

    Unlucky basepoints (degenerate fibers, ambiguous matches) are retried
    with shifted seeds; consistency failures are not retried.
    """
    last = None
    for attempt in range(retries):
        try:
            curve = build_graph(G, seed=seed + 1000 * attempt)
            mon = monodromy(curve)
            break
        except (TrackingError, BasepointError) as exc:
            last = exc
    else:
        raise last
    # every basepoint circle the steps below use, in the order they use
    # them (components come in orbit order), tracked in one lockstep run
    d = curve.degree
    sizes = [_x_degree_samples(d)] if check_x_degree else []
    if reconstruct:
        sizes += [
            _reconstruction_samples(len(orbit), d)
            for orbit in _orbits(d, mon.permutations)
            if mon.diagonal_index not in orbit
        ]
    circles = _track_circles(curve, mon, sizes)
    certs = components(curve, mon, circles.get(_x_degree_samples(d)) if check_x_degree else None)
    if reconstruct:
        for cert in certs:
            circle = circles.get(_reconstruction_samples(cert.r, d))
            cert.exact_poly = reconstruct_component(curve, cert, circle)
        _verify_factorization(curve, certs)
    report = {
        "degree": curve.degree,
        "seed": seed,
        "chart": None
        if curve.chart.is_identity()
        else [str(e) for e in _moebius_strings(curve.chart)],
        "branch_points": [_point_json(b) for b in curve.branch_locus],
        "basepoint": _point_json(curve.basepoint),
        "components": [
            {
                "bidegree": list(cert.bidegree),
                "genus": cert.genus,
                "is_diagonal": cert.is_diagonal,
                "ramification": [list(ct) for ct in cert.ramification],
                "rational_normalization": genus_zero_parametrization_check(cert),
                **(
                    {"exact_poly": cert.exact_poly.coeff_strings()}
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


def _moebius_strings(m):
    return [
        e.coords_strings() if not e.is_rational() else str(e.as_fraction())
        for e in m.entries()
    ]


def _point_json(p):
    if is_inf(p):
        return "inf"
    return [float(np.real(p)), float(np.imag(p))]
