import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mme import identities, measure, numeric
from mme.catalog import entry, omega_field
from mme.fields import FieldContext, field_configure
from mme.identities import map_digest, same_measure_test, sigma_f_quadratic, sigma_invariance_check
from mme.measure import (
    BURN_IN,
    MeasureCloud,
    backward_orbit_sample,
    julia_raster,
    lit_fraction,
)
from mme.numeric import INF, RootFindingError, named_rng, point_arrays
from mme.parser import parse_map
from mme.polys import Poly
from mme.ratmaps import MapError, RationalMap
from conftest import (
    DIFFERENT_FACTOR,
    SAME_FACTOR,
    pushed_ratio,
    random_rational_map,
    rng_for,
    sampled_ratio,
)

Q = FieldContext.rationals()


def rmap(num, den=(1,)):
    return RationalMap(Poly(Q, list(num)), Poly(Q, list(den)))


def lone_orbit(f, start, choices):
    """One backward orbit run alone, one preimage solve per step, from
    ``start`` to preimage ``choices[k]`` at step k.

    Returns the points it visits (start first) and the failure (kind, step)
    that ends it, or None.
    """
    exceptional = measure._exceptional_points(f)

    def is_exceptional(z):
        # exactly one of the points: INF by identity, a finite one by value
        return any(p is z if z is INF else p is not INF and p == z for p in exceptional)

    walk = [start]
    if is_exceptional(start):
        return walk, ("start", 0)
    for k, choice in enumerate(choices):
        try:
            pre = f.preimages(walk[-1])
        except RootFindingError:
            return walk, ("solve", k)
        walk.append(pre[choice])
        if is_exceptional(walk[-1]):
            return walk, ("hit", k)
    return walk, None


def serial_sample(f, count, depth=40, seed=0, stream="cloud"):
    """The sampler run one orbit at a time.

    Each round draws, one scalar at a time, the start and the ``depth``
    preimage choices of every orbit the count still needs, then runs each
    orbit alone (``lone_orbit``); a failed orbit is dropped.  Returns the
    cloud's points (complex or INF), every drawn orbit's visited points
    (start first) and the failures as (orbit, kind, step).
    """
    rng = named_rng(seed, stream)
    per_orbit = depth - BURN_IN
    n_orbits = math.ceil(count / per_orbit)
    pts, walks, failures = [], [], []
    while len(pts) < count:
        if len(failures) > 10 * max(1, n_orbits):
            raise MapError("too many failed backward orbits; map may be degenerate")
        draws = []
        for _ in range(math.ceil((count - len(pts)) / per_orbit)):
            z = complex(np.exp(rng.normal(0.0, 0.5)) * np.exp(2j * np.pi * rng.uniform()))
            draws.append((z, [int(rng.integers(0, f.degree)) for _ in range(depth)]))
        for start, choices in draws:
            walk, failure = lone_orbit(f, start, choices)
            walks.append(walk)
            if failure is None:
                pts.extend(walk[BURN_IN + 1:])
            else:
                failures.append((len(walks) - 1, *failure))
    return pts[:count], walks, failures


def assert_cloud_holds(cloud, points):
    """The cloud's (z, inf) pair holds ``points``, bit for bit."""
    z, inf = point_arrays(points)
    assert cloud.z.tobytes() == z.tobytes()
    assert cloud.inf.tobytes() == inf.tobytes()


def point_loop_raster(f, width, height, window, count=20000, depth=30, seed=0):
    """julia_raster binning the cloud one point at a time."""
    re0, re1, im0, im1 = window
    hist = np.zeros((height, width))
    if count > 0:
        cloud = measure.backward_orbit_sample(f, count, depth=depth, seed=seed, stream="raster")
        for z, at_inf in zip(cloud.z.tolist(), cloud.inf.tolist()):
            if at_inf:
                continue
            col = int((z.real - re0) / (re1 - re0) * width)
            row = int((im1 - z.imag) / (im1 - im0) * height)
            if 0 <= col < width and 0 <= row < height:
                hist[row, col] += 1
    dens = np.log1p(hist)
    peak = dens.max()
    if peak > 0:
        dens /= peak
    gray = (dens * 255).astype(np.uint8)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    return b"P6\n%d %d\n255\n" % (width, height) + rgb.tobytes()


def assert_sample_equals_serial(f, count, depth=40, seed=0, stream="cloud"):
    want, _walks, failures = serial_sample(f, count, depth=depth, seed=seed, stream=stream)
    got = backward_orbit_sample(f, count, depth=depth, seed=seed, stream=stream)
    assert len(got) == count
    assert_cloud_holds(got, want)
    return failures


def fail_solves_reaching(monkeypatch, target):
    """Make every root solve with a root at ``target`` fail, batched or not."""
    rows_ok, certified = numeric._certified_rows, numeric.certified_roots

    def near(roots):
        return np.abs(np.asarray(roots) - target) < 1e-9

    def failing_certified_rows(coeffs, roots):
        return rows_ok(coeffs, roots) & ~near(roots).any(axis=1)

    def failing_certified_roots(coeffs, *args, **kwargs):
        roots = certified(coeffs, *args, **kwargs)
        if near(roots).any():
            raise RootFindingError("forced failure")
        return roots

    monkeypatch.setattr(numeric, "_certified_rows", failing_certified_rows)
    monkeypatch.setattr(numeric, "certified_roots", failing_certified_roots)


def test_backward_orbit_sample_deterministic_and_weighted():
    f = rmap([-1, 0, 1])
    a = backward_orbit_sample(f, 500, depth=25, seed=7)
    b = backward_orbit_sample(f, 500, depth=25, seed=7)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.inf, b.inf)
    assert len(a) == 500


def test_power_map_cloud_lies_on_unit_circle():
    # points equilibrate toward |z| = 1 at rate 2^-k past the burn-in
    cloud = backward_orbit_sample(rmap([0, 0, 1]), 400, depth=25, seed=1)
    assert not cloud.inf.any()
    radii = np.abs(cloud.z)
    assert np.all(np.abs(radii - 1.0) < 1e-3)


def test_same_map_two_seeds_reports_same():
    f = rmap([-1, 0, 1])
    rep = same_measure_test(f, f)
    assert rep.verdict == "SAME"


def test_same_map_over_two_fields_is_sampled_and_same():
    # z^2 - 1 over Q and over Q(w): no exact route compares maps over
    # different field contexts, so the verdict is INCONCLUSIVE, and the
    # sampled clouds agree
    w = omega_field()
    f, g = rmap([-1, 0, 1]), RationalMap(Poly(w, [-1, 0, 1]), Poly(w, [1]))
    assert same_measure_test(f, g).verdict == "INCONCLUSIVE"
    assert sampled_ratio(f, g, count=1500, depth=25, seed=3) < SAME_FACTOR


def test_distinct_julia_sets_report_different():
    f, g = rmap([0, 0, 1]), rmap([1, 0, 1])
    assert same_measure_test(f, g).verdict == "DIFFERENT"
    assert sampled_ratio(f, g, count=1500, depth=25, seed=3) > DIFFERENT_FACTOR


def test_push_forward_by_sigma_preserves_measure():
    f = rmap([1, 0, 1], [0, 1])  # z + 1/z, sigma is 1/z
    s = sigma_f_quadratic(f)
    rep = sigma_invariance_check(f, s)
    assert rep.verdict == "SAME"


def test_push_forward_by_sigma_over_another_field_is_sampled_and_same():
    # sigma = 1/z over Q(w) against z + 1/z over Q: no exact route compares
    # them, so the verdict is INCONCLUSIVE, and the pushed cloud agrees
    w = omega_field()
    f = rmap([1, 0, 1], [0, 1])
    sigma = RationalMap.moebius(w.zero, w.one, w.one, w.zero)
    assert sigma_invariance_check(f, sigma).verdict == "INCONCLUSIVE"
    assert pushed_ratio(f, sigma, count=1500, depth=30, seed=5) < SAME_FACTOR


def test_push_forward_by_wrong_mobius_is_detected():
    f = rmap([-1, 0, 1])  # z^2 - 1; z -> z + 3 does not preserve its measure
    shift = RationalMap.moebius(Q.one, Q.from_rational(3), Q.zero, Q.one)
    assert pushed_ratio(f, shift, count=1500, depth=30, seed=5) > DIFFERENT_FACTOR


def test_push_forward_by_wrong_mobius_gets_an_exact_different():
    # sigma o f o sigma^-1 = z^2 - 6z + 11, whose measure has mean 3
    f = rmap([-1, 0, 1])
    shift = RationalMap.moebius(Q.one, Q.from_rational(3), Q.zero, Q.one)
    rep = sigma_invariance_check(f, shift)
    assert rep.as_dict() == {"verdict": "DIFFERENT", "route": "moments",
                             "witness": {"k": 1, "f": "0", "g": "3"}, "map": map_digest(f)}


def test_polynomial_pairs_get_an_exact_different_at_every_seed():
    z2 = rmap([0, 0, 1])
    cases = [
        (z2, rmap([Fraction(1, 100), 0, 1]), "moments", {"k": 2, "f": "0", "g": "-1/100"}),
        (rmap([0, 10**6, 1]), rmap([1, 10**6, 1]), "moments",
         {"k": 2, "f": "499999500000", "g": "499999499999"}),
        (z2, rmap([0, 0, 2]), "capacity", {"leading": ["1", "2"], "degrees": [2, 2]}),
        (z2, rmap([1, 0, 1]), "moments", {"k": 2, "f": "0", "g": "-1"}),
        (rmap([-5, Fraction(3, 7), 1]), rmap([-2, Fraction(1, 3), 1]), "moments",
         {"k": 1, "f": "-3/14", "g": "-1/6"}),
    ]
    for f, g, route, witness in cases:
        rep = same_measure_test(f, g)
        assert rep.as_dict() == {"verdict": "DIFFERENT", "route": route, "witness": witness,
                                 "maps": [map_digest(f), map_digest(g)]}


def test_map_digest_distinguishes_maps():
    assert map_digest(rmap([0, 0, 1])) != map_digest(rmap([1, 0, 1]))
    assert map_digest(rmap([0, 0, 1])) == map_digest(rmap([0, 0, 1]))


def test_raster_deterministic_and_plausible():
    f = rmap([0, 0, 1])
    ppm1 = julia_raster(f, 80, 80, (-2.0, 2.0, -2.0, 2.0), count=2000, depth=20, seed=0)
    ppm2 = julia_raster(f, 80, 80, (-2.0, 2.0, -2.0, 2.0), count=2000, depth=20, seed=0)
    assert ppm1 == ppm2
    assert ppm1.startswith(b"P6\n")
    frac = lit_fraction(ppm1)
    assert 0.005 < frac < 0.5


def test_lockstep_sample_equals_serial_sample():
    flower = entry("chebyshev-flower", {"a": "1"}).maps  # over Q(w)
    maps = [rmap([-1, 0, 1]), rmap([1, 0, 1]), rmap([1, 0, 1], [0, 1]),
            flower["f"], flower["g"], rmap([0, 10**6, 1]), rmap([0, 10**7, 1])]
    rng = rng_for("lockstep-sample")
    maps += [random_rational_map(d, rng) for d in (2, 3, 4, 5)]
    for k, f in enumerate(maps):
        assert_sample_equals_serial(f, 700, depth=25, seed=k, stream="s%d" % k)


def test_lockstep_sample_with_roots_at_infinity_equals_serial_sample(monkeypatch):
    # with INF_TOL at 0.5 many rows have leading coefficients counted as
    # zero, so their roots at INF come from the single-row path; INF is
    # exceptional for z^2 + 1, which drops each orbit that reaches it
    monkeypatch.setattr(numeric, "INF_TOL", 0.5)
    for f in (rmap([1, 0, 1]), rmap([1, 0, 1], [0, 1]), rmap([1, 0, 0, 1], [0, 0, 1]),
              rmap([2, 0, 0, 1], [-1, 1])):
        want, walks, failures = serial_sample(f, 700, depth=25, seed=1)
        got = backward_orbit_sample(f, 700, depth=25, seed=1)
        assert_cloud_holds(got, want)
        assert any(p is INF for walk in walks for p in walk)
        if f.den.degree == 0:
            assert len(failures) > 1 and all(kind == "hit" for _i, kind, _k in failures)
        else:
            assert got.inf.any()  # points at INF in the cloud


def test_sampler_holds_no_generator_state_per_orbit():
    # at depth BURN_IN + 1 every point is an orbit of its own; a generator
    # state kept per orbit (about 0.5 kB each) and the cloud's lifts held
    # beside its points took the peak to 26.2 MB (numpy 2.4, CPython
    # 3.11), against 10.4 MB with one state per round
    f = rmap([-1, 0, 1])
    backward_orbit_sample(f, 100, depth=BURN_IN + 1)
    tracemalloc.start()
    try:
        cloud = backward_orbit_sample(f, 20000, depth=BURN_IN + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cloud) == 20000
    assert peak < 16 * 10**6


def test_lockstep_sample_counts():
    # 30 points per orbit: 29 and 4000 are not multiples of it
    f = rmap([-1, 0, 1])
    for count in (0, 1, 29, 4000):
        assert_sample_equals_serial(f, count, seed=count)


def survivors(walks, failed, count):
    """The points past the burn-in of the orbits of ``walks`` not in
    ``failed``, in orbit order, up to ``count``."""
    return [p for i, walk in enumerate(walks) if i not in failed for p in walk[BURN_IN + 1:]][:count]


def test_lockstep_sample_forced_failures(monkeypatch):
    f = rmap([1, 0, 1])
    # the first nine orbits the sampler draws, none of which fails
    _pts, walks, failures = serial_sample(f, 270)
    assert not failures and len(walks) == 9
    # an orbit that starts at an exceptional point, and one that lands on it
    for point, failure in ((walks[2][0], (2, "start", 0)), (walks[1][6], (1, "hit", 5))):
        monkeypatch.setattr(measure, "_exceptional_points", lambda f, p=point: [p])
        assert assert_sample_equals_serial(f, 200) == [failure]
        got = backward_orbit_sample(f, 200)
        assert_cloud_holds(got, survivors(walks, {failure[0]}, 200))
    monkeypatch.undo()
    # a root solve that cannot be certified at step 7 of orbit 3
    fail_solves_reaching(monkeypatch, walks[3][8])
    assert assert_sample_equals_serial(f, 200) == [(3, "solve", 7)]
    assert_cloud_holds(backward_orbit_sample(f, 200), survivors(walks, {3}, 200))
    monkeypatch.undo()
    # orbit 3 fails at step 2 and orbit 1 at step 30: each drops only
    # itself, and the next round draws orbits 7 and 8 in their place
    fail_solves_reaching(monkeypatch, walks[3][3])
    monkeypatch.setattr(measure, "_exceptional_points", lambda f: [walks[1][31]])
    assert assert_sample_equals_serial(f, 200) == [(1, "hit", 30), (3, "solve", 2)]
    assert_cloud_holds(backward_orbit_sample(f, 200), survivors(walks, {1, 3}, 200))


@pytest.mark.parametrize("n_failures", [10, 11])
def test_lockstep_sample_too_many_failures(monkeypatch, n_failures):
    # a count that needs one orbit allows ten failed orbits and raises at
    # the eleventh; one that needs two orbits, drawn two a round, allows
    # twenty and raises at the twenty-first
    f = rmap([-1, 0, 1])
    for count, failing in ((29, n_failures), (59, 2 * n_failures)):
        _pts, walks, _failures = serial_sample(f, 30 * (failing + 2))
        starts = [walk[0] for walk in walks[:failing]]
        monkeypatch.setattr(measure, "_exceptional_points", lambda f, s=starts: s)
        if failing > 10 * math.ceil(count / 30):
            for sample in (serial_sample, backward_orbit_sample):
                with pytest.raises(MapError, match="too many failed backward orbits"):
                    sample(f, count)
        else:
            assert len(assert_sample_equals_serial(f, count)) == failing
        monkeypatch.undo()


def test_raster_equals_point_loop(monkeypatch):
    windows = [(-2.0, 2.0, -2.0, 2.0), (-0.4, 1.6, -1.1, 0.3), (0.0, 1.0, 0.0, 1.0)]
    for num in ([-1, 0, 1], [1, 0, 1], [0, 0, 1]):
        for window in windows:
            for count in (0, 3000):
                args = (rmap(num), 70, 50, window)
                kwargs = {"count": count, "depth": 25, "seed": 4}
                assert julia_raster(*args, **kwargs) == point_loop_raster(*args, **kwargs)
    # points at infinity, next to it, outside the window, and in the
    # first column and row only because their pixel index truncates to 0
    special = [INF, INF, 1e11 + 1e11j, -2.02 + 0.1j, -2.02 + 0.1j, 0.5 + 2.03j,
               -2.02 + 2.03j, 2.5 + 0j, 0.5 - 2.01j, -2.06 + 0j, 2.0 + 0j]
    special = point_arrays(special + [-1e7 + 0j])
    real = backward_orbit_sample(rmap([-1, 0, 1]), 400, depth=20, seed=0, stream="raster")
    cloud = MeasureCloud(*(np.concatenate(pair) for pair in zip((real.z, real.inf), special)))
    monkeypatch.setattr(measure, "backward_orbit_sample", lambda *a, **k: cloud)
    args = (rmap([-1, 0, 1]), 80, 80, (-2.0, 2.0, -2.0, 2.0))
    ppm = julia_raster(*args, count=1)
    assert ppm == point_loop_raster(*args, count=1)
    pixels = np.frombuffer(ppm[len(b"P6\n80 80\n255\n"):], dtype=np.uint8).reshape(80, 80, 3)
    for row, col in ((38, 0), (0, 50), (0, 0)):
        assert pixels[row, col, 0] > 0


def test_raster_count_table_equals_point_loop(monkeypatch):
    # a pixel of more than 255 points, whose gray level is still 255: 300
    # copies of one point beside a real cloud
    real = backward_orbit_sample(rmap([-1, 0, 1]), 2000, depth=20, seed=3, stream="raster")
    heap = point_arrays([0.1 + 0.1j] * 300)
    cloud = MeasureCloud(*(np.concatenate(pair) for pair in zip((real.z, real.inf), heap)))
    monkeypatch.setattr(measure, "backward_orbit_sample", lambda *a, **k: cloud)
    args = (rmap([-1, 0, 1]), 60, 40, (-2.0, 2.0, -2.0, 2.0))
    ppm = julia_raster(*args, count=1)
    assert ppm == point_loop_raster(*args, count=1)
    pixels = np.frombuffer(ppm[len(b"P6\n60 40\n255\n"):], dtype=np.uint8)
    assert (pixels == 255).sum() == 3 and len(np.unique(pixels)) > 3
    monkeypatch.undo()
    # a window that holds no point, and no points at all: blank rasters
    for window, count in (((10.0, 11.0, 10.0, 11.0), 3000), ((-2.0, 2.0, -2.0, 2.0), 0)):
        args = (rmap([-1, 0, 1]), 31, 17, window)
        ppm = julia_raster(*args, count=count, depth=20, seed=5)
        assert ppm == point_loop_raster(*args, count=count, depth=20, seed=5)
        assert ppm == b"P6\n31 17\n255\n" + bytes(31 * 17 * 3)


def test_blank_raster_at_the_pixel_budget_fits_in_80_mb():
    # a 2048 x 2048 raster at count 0 peaked at 109 MB (26 B a pixel) when
    # binned by a float histogram and a log1p per pixel; with a count table
    # it is 38 MB (9 B a pixel: the int64 counts and the uint8 grays), numpy
    # 2.4, CPython 3.11
    f = rmap([-1, 0, 1])
    julia_raster(f, 8, 8, (-2.0, 2.0, -2.0, 2.0), count=0)
    tracemalloc.start()
    try:
        ppm = julia_raster(f, 2048, 2048, (-2.0, 2.0, -2.0, 2.0), count=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ppm) == len(b"P6\n2048 2048\n255\n") + 3 * 2048**2
    assert peak < 80 * 10**6


def moebius_conjugate_of_z3():
    """phi o z^3 o phi^-1 over Q(w), phi = (z + w)/(z + 1): its exceptional
    points are phi(0) = w and phi(INF) = 1."""
    K = omega_field()
    w = K.gen()
    phi = RationalMap.moebius(K.one, w, K.one, K.one)
    phi_inv = RationalMap.moebius(K.one, -w, -K.one, K.one)
    z3 = RationalMap(Poly(K, [0, 0, 0, 1]), Poly(K, [1]))
    return phi.compose(z3.compose(phi_inv)), complex(K.embed(w))


def _exceptional_cases():
    conjugate, w = moebius_conjugate_of_z3()
    tiny = Fraction(1, 10**13)
    return {
        "z^2": (rmap([0, 0, 1]), [0j, INF]),
        "z^3": (rmap([0, 0, 0, 1]), [0j, INF]),
        # from the Wronskian's factor z^2 + 1
        "(z^2-1)/(2z)": (rmap([-1, 0, 1], [0, 2]), [1j, -1j]),
        "z^2/(2z-1)": (rmap([0, 0, 1], [-1, 2]), [0j, 1 + 0j]),
        # the fiber of each point is a triple root, which a numeric
        # preimage solve splits by about 6e-6
        "conjugate of z^3": (conjugate, [1 + 0j, w]),
        "z^2+1e-14": (rmap([tiny / 10, 0, 1]), [INF]),
        "z^3+1e-8z^2": (rmap([0, 0, Fraction(1, 10**8), 1]), [INF]),
        "z^2-2": (rmap([-2, 0, 1]), [INF]),
        "z^3-3z": (rmap([0, -3, 0, 1]), [INF]),
        "(z^2+1e-13)/(1+1e-14z)": (rmap([tiny, 0, 1], [1, tiny / 10]), []),
        "z+1/z": (rmap([1, 0, 1], [0, 1]), []),
        # E(1/z^2) = {0, INF} is a 2-cycle, not a pair of fixed points
        "1/z^2": (rmap([1], [0, 0, 1]), []),
    }


@pytest.mark.parametrize("name", list(_exceptional_cases()))
def test_exceptional_points_are_decided_exactly(monkeypatch, name):
    def no_solve(*args):
        raise AssertionError("no fixed-point or preimage solve")

    monkeypatch.setattr(numeric, "projective_roots", no_solve)
    monkeypatch.setattr(RationalMap, "preimages", no_solve)
    f, want = _exceptional_cases()[name]
    got = measure._exceptional_points(f)
    # the finite points, in either order, then INF
    assert [p is INF for p in got] == [p is INF for p in want]
    key = lambda z: (round(z.real, 9), round(z.imag, 9))  # noqa: E731
    finite = [sorted((p for p in ps if p is not INF), key=key) for ps in (got, want)]
    assert finite[0] == pytest.approx(finite[1], abs=1e-12)


def test_lockstep_sample_cuts_at_exceptional_points_as_serial():
    # z^2 has two exceptional points, 0 and INF; z + 1/z has none
    for f in (rmap([0, 0, 1]), rmap([1, 0, 1], [0, 1])):
        assert not assert_sample_equals_serial(f, 700, depth=25, seed=2)


def test_lockstep_sample_cuts_only_on_an_exceptional_point(monkeypatch):
    f = rmap([1, 0, 1])
    _pts, walks, failures = serial_sample(f, 270)
    assert not failures
    point = walks[1][6]
    off = complex(np.nextafter(point.real, np.inf), point.imag)
    # one ulp off the point, orbit 1 is kept; on it, it is dropped
    for p, dropped in ((off, set()), (point, {1})):
        monkeypatch.setattr(measure, "_exceptional_points", lambda f, p=p: [p])
        assert_cloud_holds(backward_orbit_sample(f, 200), survivors(walks, dropped, 200))
    # an orbit at 0 is not at an exceptional INF, whose z is 0 too
    choices = np.zeros((1, 2 * BURN_IN), dtype=np.int64)
    for points, n_failed in (([INF], 0), ([0j], 1)):
        exceptional = point_arrays(points)
        assert measure._lockstep_orbits(f, exceptional, np.array([0j]), choices)[2] == n_failed
    # nor is an orbit at INF at an exceptional 0: z + 1/z steps to INF
    # when INF_TOL is 0.5
    monkeypatch.setattr(numeric, "INF_TOL", 0.5)
    monkeypatch.setattr(measure, "_exceptional_points", lambda f: [0j])
    h = rmap([1, 0, 1], [0, 1])
    assert assert_sample_equals_serial(h, 700, depth=25, seed=1)
    assert backward_orbit_sample(h, 700, depth=25, seed=1).inf.any()


def test_lockstep_sample_cuts_every_orbit_near_any_exceptional_point(monkeypatch):
    f = rmap([1, 0, 1])
    _pts, walks, failures = serial_sample(f, 270)
    assert not failures
    # at the same step, orbit 3 meets one point and orbit 1 the other; both
    # are dropped, whichever point is listed first
    for points in ([walks[3][6], walks[1][6]], [walks[1][6], walks[3][6]]):
        monkeypatch.setattr(measure, "_exceptional_points", lambda f, p=points: p)
        assert assert_sample_equals_serial(f, 200) == [(1, "hit", 5), (3, "hit", 5)]
        assert_cloud_holds(backward_orbit_sample(f, 200), survivors(walks, {1, 3}, 200))


@pytest.mark.parametrize("size", [(0, 10), (10, 0), (-3, 10)])
def test_raster_rejects_a_non_positive_size(size):
    with pytest.raises(MapError, match="positive"):
        julia_raster(rmap([0, 0, 1]), *size, (-2.0, 2.0, -2.0, 2.0))


def test_raster_rejects_an_unbounded_window():
    for window in ((-np.inf, 2.0, -2.0, 2.0), (-2.0, 2.0, -2.0, np.inf), (-1e308, 1e308, 0, 1)):
        with pytest.raises(MapError, match="window"):
            julia_raster(rmap([0, 0, 1]), 10, 10, window)


def test_exact_routes_draw_no_cloud():
    f = random_rational_map(2, rng_for("exact-routes"))
    sigma = sigma_f_quadratic(f)
    flower = entry("chebyshev-flower", {"a": "2"}).maps
    z2, z_minus_2 = rmap([0, 0, 1]), rmap([1], [0, 0, 1])
    K = field_configure([1, 0, 1])
    z2_k, iz2, h_i, ih_i = (parse_map(text, K, {"i": K.gen()})
                            for text in ("z^2", "i*z^2", "z^2+2/z^2", "i*(z^2+2/z^2)"))
    relation = "fⁿ∘gᵐ = f^(n+k)"
    cases = [
        (flower["f"], flower["g"], relation, {"n": 1, "m": 1, "k": 1}),
        # the Rat_2 case g = sigma_f∘f^n
        (f, sigma.compose(f.iterate(2)), relation, {"n": 1, "m": 1, "k": 2}),
        (f.iterate(3), f, relation, {"n": 0, "m": 3, "k": 1}),
        (z2, z_minus_2, relation, {"n": 0, "m": 2, "k": 2}),
        (z2_k, iz2, relation, {"n": 2, "m": 1, "k": 1}),
        (h_i, ih_i, relation, {"n": 2, "m": 1, "k": 1}),
        (z2, rmap([0, 0, 0, 1]), "f∘g = g∘f", None),
        (rmap([-2, 0, 1]), rmap([0, -3, 0, 1]), "f∘g = g∘f", None),
    ]
    for a, b, route, witness in cases:
        rep = same_measure_test(a, b)
        assert rep.as_dict() == {"verdict": "SAME", "route": route, "witness": witness,
                                 "maps": [map_digest(a), map_digest(b)]}
    minus = RationalMap.moebius(-Q.one, Q.zero, Q.zero, Q.one)  # commutes with z + 1/z
    i_z = RationalMap.moebius(K.gen(), K.zero, K.zero, K.one)  # permutes the fibers of h_i^2
    for a, phi, route, witness in (
            (f, f, "φ = f", None), (f, sigma, relation, {"n": 1, "m": 1, "k": 1}),
            (rmap([1, 0, 1], [0, 1]), minus, relation, {"n": 0, "m": 1, "k": 1}),
            (h_i, i_z, relation, {"n": 2, "m": 1, "k": 1})):
        rep = sigma_invariance_check(a, phi)
        assert rep.as_dict() == {"verdict": "SAME", "route": route, "witness": witness,
                                 "map": map_digest(a)}


def test_undecided_pairs_are_inconclusive_without_sampling():
    w = omega_field()
    h = rmap([1, 0, 1], [0, 1])  # z + 1/z
    for f, g in ((h, rmap([1, Fraction(1, 100), 1], [0, 1])),
                 (rmap([-1, 0, 1]), RationalMap(Poly(w, [-1, 0, 1]), Poly(w, [1])))):
        assert same_measure_test(f, g).as_dict() == {
            "verdict": "INCONCLUSIVE", "reason": identities.INCONCLUSIVE_REASON,
            "maps": [map_digest(f), map_digest(g)]}
    sigma = RationalMap.moebius(w.zero, w.one, w.one, w.zero)
    assert sigma_invariance_check(h, sigma).as_dict() == {
        "verdict": "INCONCLUSIVE", "reason": identities.INCONCLUSIVE_REASON, "map": map_digest(h)}


def test_input_errors_come_before_every_route(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("input errors must be raised before any route")

    for route in ("same_measure_identity", "invariant_measure_identity", "moment_test"):
        monkeypatch.setattr(identities, route, unreachable)
    moebius = rmap([1, 1])
    with pytest.raises(MapError, match="degree >= 2"):
        same_measure_test(moebius, moebius)
    with pytest.raises(MapError, match="degree >= 2"):
        same_measure_test(rmap([-1, 0, 1]), moebius)
    with pytest.raises(MapError, match="degree >= 2"):
        sigma_invariance_check(moebius, moebius)
