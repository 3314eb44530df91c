"""The benchmark's workloads: fixed lists of `mme` CLI jobs with their oracles.

Each workload is built from a workload seed.  The seed draws the random maps
and the CLI ``--seed`` of every job; the program only ever sees the argv.
Every job carries an oracle whose expectation holds by construction (or by an
independent evaluation), never by trusting a verdict the program computes.

An oracle returns one of three statuses:

* ``ok``: the output is the expected one;
* ``error``: the program declined (an error exit code); the job failed but
  gave no wrong answer;
* ``wrong``: the program answered, and the answer contradicts the oracle.

A job with a ``known_failure`` note fails at the commit the benchmark was
defined on; it is kept so that a fix shows as a higher ``ok_frac``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("graph", "exact_q", "exact_ext", "measure")

# The degree 6-8 graph jobs use fixed maps and a fixed CLI seed.  Drawn at
# random, one such job alone moves a pass by up to 15% (degree 6: 7-14 s),
# and at degrees 7-8 its cost is bimodal (a 0.3 s BasepointError or a 13-23 s
# success, depending on both the map and the CLI seed); no run that fits the
# benchmark's time budget averages that out.  The maps were drawn once from
# small integer coefficients in [-5, 5].
FIXED_GRAPH_MAPS = {
    6: ([5, -1, 1, -4, 0, 3, 1], [5, 1, 3, 5, -3, 0, 5]),
    7: ([-1, -2, 4, 5, -5, 0, 2, -3], [-2, -5, 1, 1, 0, 4, 1, 5]),
    8: ([3, -3, -1, -1, -3, -3, 4, 3, -3], [-3, -2, 3, -5, 3, -4, -1, 2, 4]),
}
FIXED_GRAPH_SEED = 1

KNOWN_FAILURES = {
    "graph/analyze-d8": "exits 3 (BasepointError: could not lay out non-overlapping "
    "loops); with other CLI seeds the same map succeeds in 18-23 s",
    "exact_ext/certify-cubic": "certify over Q(cbrt 2) reports 'no Moebius factor "
    "R = sigma o S: PASS' although R = sigma o S exactly (rationalize_into_field "
    "guesses for extension degree >= 3)",
    "measure/measure-flower": "the verdict compares one energy distance with one "
    "single-draw self baseline by fixed factors 3 and 10 (uncalibrated); for this "
    "equal-measure pair it reports INCONCLUSIVE, or a false DIFFERENT (a = -3-2w, "
    "CLI seed 362377222: ratio 33), at some seeds",
}

CLAIM_T = "T∘R = T∘S"
CLAIM_MOEBIUS = "no Moebius factor R = σ∘S"
CLAIM_FF = "f∘f = f∘g"


@dataclass
class Job:
    name: str
    argv: list
    check: object  # check(exit_code, stdout_bytes) -> (status, reason)
    known_failure: str = None


# -- input generation ---------------------------------------------------------------


def _rng(seed, tag):
    return np.random.default_rng([int(seed) % (2**63), sum(map(ord, tag)), len(tag)])


def _cli_seed(rng):
    return str(int(rng.integers(0, 2**31 - 1)))


def random_rational_map(rng, degree, bound=5):
    """(num, den) integer coefficient lists of a map of exact degree ``degree``."""
    from mme.fields import FieldContext
    from mme.polys import Poly
    from mme.ratmaps import MapError, RationalMap

    ctx = FieldContext.rationals()
    while True:
        num = [int(c) for c in rng.integers(-bound, bound + 1, size=degree + 1)]
        den = [int(c) for c in rng.integers(-bound, bound + 1, size=degree + 1)]
        num[-1] = num[-1] or 1
        if not any(den):
            continue
        try:
            f = RationalMap(Poly(ctx, num), Poly(ctx, den))
        except MapError:
            continue
        if f.degree == degree:
            return num, den


def _map_json(num, den):
    return {"num": [str(c) for c in num], "den": [str(c) for c in den]}


def _write_json(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return "@" + path


def _poly_text(coeffs):
    """Shorthand text of an integer polynomial in z, e.g. '2z^2-z+3'."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        mono = "" if k == 0 else ("z" if k == 1 else "z^%d" % k)
        body = str(mag) if (mag != 1 or k == 0) else ""
        terms.append(("-" if c < 0 else "+") + body + mono)
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


def _param_text(rng):
    """A random p + q*w, 1 <= |p|, |q| <= 3, as parameter text; w is the field's
    generator.  q != 0 keeps the parameter out of Q, where arithmetic is cheaper."""
    p, q = (int(v) * int(s) for v, s in zip(rng.integers(1, 4, size=2),
                                               rng.choice([-1, 1], size=2)))
    return "%d%+d*w" % (p, q)


def _flower_text(sym="a"):
    """f(z) = a(z^3-3z) + 1/(a(z^3-3z)) with the parameter bound to ``sym``."""
    return "(%s^2*(z^3-3z)^2+1)/(%s*(z^3-3z))" % (sym, sym)


# -- oracles ---------------------------------------------------------------------------


def _report(code, out, want_code=0):
    if code != want_code:
        return None, ("error", "exit code %r, expected %r" % (code, want_code))
    try:
        return json.loads(out.decode("utf-8")), None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, ("wrong", "unparseable report: %s" % exc)


def _bipoly_key(rows):
    """Exact bivariate polynomial from coefficient strings, scaled to leading 1."""
    terms = {}
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if isinstance(c, list):
                c = tuple(Fraction(v) for v in c)
                if any(c[1:]):
                    terms[(i, j)] = c
                    continue
                c = c[0]
            c = Fraction(c)
            if c:
                terms[(i, j)] = (c,)
    lead = terms[max(terms)]
    if len(lead) != 1:
        return tuple(sorted(terms.items()))
    return tuple(sorted((k, tuple(v / lead[0] for v in c)) for k, c in terms.items()))


def check_graph(degree, exact_factors=None):
    """Bidegrees sum to d, r1 = r2, integer genus >= 0, one diagonal line."""

    def check(code, out):
        rep, fail = _report(code, out)
        if fail:
            return fail
        comps = rep.get("components") or []
        if rep.get("degree") != degree:
            return "wrong", "report degree %r != %d" % (rep.get("degree"), degree)
        if sum(c["bidegree"][0] for c in comps) != degree:
            return "wrong", "bidegrees do not sum to %d" % degree
        for c in comps:
            r1, r2 = c["bidegree"]
            if r1 != r2:
                return "wrong", "bidegree (%d, %d) is not symmetric" % (r1, r2)
            g = c["genus"]
            if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                return "wrong", "genus %r is not a non-negative integer" % (g,)
        diag = [c for c in comps if c["is_diagonal"]]
        if len(diag) != 1 or diag[0]["bidegree"] != [1, 1]:
            return "wrong", "expected exactly one diagonal (1, 1) component"
        if exact_factors is not None:
            got = sorted(_bipoly_key(c["exact_poly"]) for c in comps if "exact_poly" in c)
            if got != sorted(_bipoly_key(rows) for rows in exact_factors):
                return "wrong", "exact factors differ from the expected ones"
        return "ok", ""

    return check


def check_claims(expected, iterate_square=None):
    """Certificate verdicts equal to those that hold by construction."""
    want_code = 0 if all(v == "PASS" for _, v in expected) else 1

    def check(code, out):
        if code not in (0, 1):
            return "error", "exit code %r" % (code,)
        rep, fail = _report(code, out, code)
        if fail:
            return fail
        got = [(c["name"], c["verdict"]) for c in rep["claims"]]
        if got != list(expected):
            return "wrong", "verdicts %s, expected %s" % (got, list(expected))
        if code != want_code:
            return "wrong", "exit code %d disagrees with the verdicts" % code
        if iterate_square and rep.get("iterate_square_identity") != iterate_square:
            return "wrong", "iterate_square_identity %r" % rep.get("iterate_square_identity")
        return "ok", ""

    return check


def check_iterate(f, n, points):
    """The output equals f^n: degree d^n, and its value at each point equals n
    exact evaluations of f there."""
    expected = []
    for z in points:
        w = z
        for _ in range(n):
            w = f.eval_exact(w)
        expected.append(w)
    return _check_map_values(f.ctx, f.degree**n, points, expected)


def check_compose(f, g, points):
    expected = [f.eval_exact(g.eval_exact(z)) for z in points]
    return _check_map_values(f.ctx, f.degree * g.degree, points, expected)


def _check_map_values(ctx, degree, points, expected):
    from mme.serialize import map_from_json

    def check(code, out):
        rep, fail = _report(code, out)
        if fail:
            return fail
        h = map_from_json(rep, ctx=ctx)
        if h.degree != degree:
            return "wrong", "degree %d, expected %d" % (h.degree, degree)
        for z, want in zip(points, expected):
            if h.eval_exact(z) != want:
                return "wrong", "value at %r differs from the composed evaluation" % (z,)
        return "ok", ""

    return check


def check_shared(expected_pair):
    def check(code, out):
        rep, fail = _report(code, out)
        if fail:
            return fail
        if rep.get("shared_iterate") != expected_pair:
            return "wrong", "shared_iterate %r, expected %r" % (
                rep.get("shared_iterate"), expected_pair)
        return "ok", ""

    return check


def check_measure(verdict):
    """The statistical verdict; INCONCLUSIVE is a failure but not a wrong answer."""

    def check(code, out):
        rep, fail = _report(code, out)
        if fail:
            return fail
        got = rep.get("verdict")
        if got == verdict:
            return "ok", ""
        status = "error" if got == "INCONCLUSIVE" else "wrong"
        return status, "verdict %r, expected %r (ratio %s)" % (got, verdict, rep.get("ratio"))

    return check


def check_raster(size, unit_circle=False):
    """A size x size binary PPM of the default window [-2.5, 2.5]^2 whose lit
    fraction is plausible; for z^2 every lit pixel lies on the unit circle."""
    header = b"P6\n%d %d\n255\n" % (size, size)

    def check(code, out):
        if code != 0:
            return "error", "exit code %r" % (code,)
        if not out.startswith(header) or len(out) != len(header) + 3 * size * size:
            return "wrong", "not a %dx%d binary PPM" % (size, size)
        lit = np.frombuffer(out[len(header):], dtype=np.uint8).reshape(size, size, 3).sum(2) > 0
        if not 0.0005 < lit.mean() < 0.5:
            return "wrong", "implausible lit fraction %.4f" % lit.mean()
        if unit_circle:
            rows, cols = np.nonzero(lit)
            pixel = 5.0 / size
            radius = np.hypot((cols + 0.5) * pixel - 2.5, 2.5 - (rows + 0.5) * pixel)
            if np.abs(radius - 1.0).max() > 2 * pixel:
                return "wrong", "lit pixels off the unit circle"
        return "ok", ""

    return check


# -- workloads -------------------------------------------------------------------------


def _graph(seed, workdir, small):
    rng = _rng(seed, "graph")
    jobs = [Job(
        "analyze-z3-3z",
        ["analyze-graph", "--map", "z^3-3z", "--seed", _cli_seed(rng)],
        check_graph(3, exact_factors=[[["0", "-1"], ["1", "0"]],
                                      [["-3", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]]]),
    )]
    # At some seeds a random map fails (exit 3, e.g. "sphere relation
    # violated"); such maps are kept and count against ok_frac.
    for d in (3,) if small else (3, 4, 5):
        num, den = random_rational_map(rng, d)
        argv = ["analyze-graph", "--map", _write_json(workdir, "graph-d%d.json" % d,
                                                       _map_json(num, den)),
                "--seed", _cli_seed(rng)]
        jobs.append(Job("analyze-d%d" % d, argv, check_graph(d)))
    if not small:
        for d, (num, den) in FIXED_GRAPH_MAPS.items():
            argv = ["analyze-graph", "--map", json.dumps(_map_json(num, den)),
                    "--seed", str(FIXED_GRAPH_SEED), "--no-reconstruct"]
            name = "analyze-d%d" % d
            jobs.append(Job(name, argv, check_graph(d), KNOWN_FAILURES.get("graph/" + name)))
    return jobs


def _zieve_expected(n, m):
    return [(CLAIM_T, "PASS"), (CLAIM_MOEBIUS, "PASS" if n != m else "FAIL"),
            (CLAIM_FF, "PASS")]


def _exact_q(seed, workdir, small):
    from mme.fields import FieldContext
    from mme.parser import parse_map
    from mme.polys import Poly
    from mme.ratmaps import RationalMap
    from mme.serialize import map_to_json

    rng = _rng(seed, "exact_q")
    Q = FieldContext.rationals()
    points = [Q.from_rational(Fraction(p)) for p in ("0", "2", "-1/3")]
    jobs = []
    for n, m in ((2, 1), (2, 2)) if small else ((3, 1), (1, 3), (2, 1), (2, 2)):
        jobs.append(Job(
            "zieve-%d-%d" % (n, m),
            ["catalog", "run", "zieve-family", "--param", "n=%d" % n, "--param", "m=%d" % m,
             "--seed", _cli_seed(rng)],
            check_claims(_zieve_expected(n, m)),
        ))
    jobs.append(Job(
        "certify-readme",
        ["certify", "--T", "z^2(z+1)", "--R", "(1-z^2)/(z^3-1)", "--S", "(z-z^3)/(z^3-1)",
         "--seed", _cli_seed(rng)],
        check_claims([(CLAIM_T, "PASS"), (CLAIM_MOEBIUS, "PASS"), (CLAIM_FF, "PASS")]),
    ))
    cheb = parse_map("z^2-1", Q)
    fixed = (("z^2-1", 4), ("(z^2+2)/(z-3)", 3)) if small else (
        ("z^2-1", 10), ("(z^2+2)/(z-3)", 6), ("(z^3+2)/(z^2-z+3)", 4))
    for k, (text, n) in enumerate(fixed):
        jobs.append(Job("iterate-fixed-%d" % k, ["iterate", "--map", text, "--n", str(n)],
                        check_iterate(parse_map(text, Q), n, points)))
    # The cost of a random iterate is heavy-tailed in the coefficient heights
    # (0.2-5 s for degree 2, n = 6), so several smaller ones are averaged.
    for k, (d, n) in enumerate(((2, 3), (3, 2)) if small else ((2, 5),) * 3 + ((3, 3),) * 3):
        num, den = random_rational_map(rng, d)
        f = RationalMap(Poly(Q, num), Poly(Q, den))
        spec = _write_json(workdir, "q-%d.json" % k, _map_json(num, den))
        jobs.append(Job("iterate-rand-%d" % k, ["iterate", "--map", spec, "--n", str(n)],
                        check_iterate(f, n, points)))
    # f against its own cube: least shared iterate (3, 1), by exact coefficients
    num, den = random_rational_map(rng, 2)
    f = RationalMap(Poly(Q, num), Poly(Q, den))
    f_spec = _write_json(workdir, "shared-f.json", _map_json(num, den))
    g_spec = _write_json(workdir, "shared-g.json", map_to_json(f.iterate(3)))
    jobs.append(Job("shared-rand-cube", ["iterate", "--map", f_spec, "--shared-with", g_spec],
                    check_shared([3, 1])))
    # z^2-1 against its 7th iterate (degree 128): decided by exact point evaluation
    k = 3 if small else 7
    g_spec = _write_json(workdir, "shared-cheb.json", map_to_json(cheb.iterate(k)))
    jobs.append(Job("shared-z2-1-pow%d" % k,
                    ["iterate", "--map", "z^2-1", "--shared-with", g_spec],
                    check_shared([k, 1])))
    return jobs


def _exact_ext(seed, workdir, small):
    from mme.catalog import entry, omega_field, parse_param
    from mme.fields import field_configure
    from mme.parser import parse_map

    rng = _rng(seed, "exact_ext")
    jobs = []
    params = [_param_text(rng) for _ in range(1 if small else 3)]
    for k, a in enumerate(params):
        jobs.append(Job(
            "flower-catalog-%d" % k,
            ["catalog", "run", "chebyshev-flower", "--param", "a=" + a, "--seed", _cli_seed(rng)],
            check_claims([(CLAIM_T, "PASS"), (CLAIM_MOEBIUS, "PASS"), (CLAIM_FF, "PASS")],
                         iterate_square="PASS"),
        ))
    # The iterates carry most of this workload's time and their cost grows
    # with the height of the parameter, so their parameters are fixed.
    # Q(i) is i^2 + 1 = 0; a = p + q*w there means p + q*i.
    n = 2 if small else 3
    for label, minpoly in (("w", "1,1,1"), ("i", "1,0,1")):
        ctx = field_configure([int(c) for c in minpoly.split(",")])
        points = [ctx.from_rational(2), ctx.from_rational(Fraction(-1, 3)), ctx.gen() + ctx.one]
        for k, a in enumerate(("1+1*w", "2-1*w")[:1 if small else 2]):
            f = parse_map(_flower_text(), ctx, {"a": parse_param(ctx, a)})
            jobs.append(Job(
                "flower-iterate-%s%d" % (label, k),
                ["iterate", "--field", minpoly, "--bind", "a=" + a, "--map", _flower_text(),
                 "--n", str(n)],
                check_iterate(f, n, points),
            ))
    W = omega_field()
    a, b = params[0], params[-1]
    jobs.append(Job(
        "flower-compose-w",
        ["compose", "--field", "1,1,1", "--bind", "a=" + a, "--bind", "b=" + b,
         "--f", _flower_text("a"), "--g", _flower_text("b")],
        check_compose(entry("chebyshev-flower", {"a": a}).maps["f"],
                      entry("chebyshev-flower", {"a": b}).maps["f"],
                      [W.from_rational(2), W.from_rational(Fraction(-1, 3)), W.gen() + W.one]),
    ))
    # R = sigma o S with sigma not rational, so a Moebius factor exists by
    # construction.  Over Q(t), t^3 = 2: sigma = t/z is an involution fixing
    # T = z + t/z.  Over Q(t), t^4 + 1 = 0: sigma = t^2 z has order 4 and
    # fixes T = z^4.  Either way T∘R = T∘S and f∘f = f∘g hold as well.
    num, den = random_rational_map(rng, 2)
    S = "(%s)/(%s)" % (_poly_text(num), _poly_text(den))
    expected = [(CLAIM_T, "PASS"), (CLAIM_MOEBIUS, "FAIL"), (CLAIM_FF, "PASS")]
    jobs.append(Job(
        "certify-cubic",
        ["certify", "--field=-2,0,0,1", "--bind", "t=w", "--T", "z+t/z", "--S", S,
         "--R", "t*(%s)/(%s)" % (_poly_text(den), _poly_text(num)), "--seed", _cli_seed(rng)],
        check_claims(expected),
        KNOWN_FAILURES["exact_ext/certify-cubic"],
    ))
    jobs.append(Job(
        "certify-quartic",
        ["certify", "--field=1,0,0,0,1", "--bind", "t=w", "--T", "z^4", "--S", S,
         "--R", "t^2*%s" % S, "--seed", _cli_seed(rng)],
        check_claims(expected),
    ))
    return jobs


def _measure(seed, workdir, small):
    from mme.catalog import entry
    from mme.serialize import map_to_json

    rng = _rng(seed, "measure")
    count = "4000" if small else "20000"
    flower = entry("chebyshev-flower", {"a": _param_text(rng)}).maps
    f_spec = _write_json(workdir, "flower-f.json", map_to_json(flower["f"]))
    g_spec = _write_json(workdir, "flower-g.json", map_to_json(flower["g"]))
    size = "40" if small else "400"
    return [
        # f∘f = f∘g forces equal maximal-entropy measures.  At some seeds the
        # test says INCONCLUSIVE or DIFFERENT; the job is kept and counts
        # against ok_frac.
        Job("measure-flower", ["measure", "--f", f_spec, "--g", g_spec, "--count", count,
                               "--depth", "40", "--seed", _cli_seed(rng)],
            check_measure("SAME"), KNOWN_FAILURES["measure/measure-flower"]),
        # z^2 has the unit circle as Julia set, z^2+1 a Cantor dust
        Job("measure-z2-vs-z2+1", ["measure", "--f", "z^2", "--g", "z^2+1",
                                   "--seed", _cli_seed(rng)],
            check_measure("DIFFERENT")),
    ] + [
        Job("render-" + label, ["render", "--map", spec, "--width", size, "--height", size,
                                "--seed", _cli_seed(rng)],
            check_raster(int(size), unit_circle=spec == "z^2"))
        for label, spec in (("z2-1", "z^2-1"), ("z2+1", "z^2+1"), ("z2", "z^2"))
    ]


_JOB_LISTS = {"graph": _graph, "exact_q": _exact_q, "exact_ext": _exact_ext,
              "measure": _measure}


def build(workload, seed, workdir, small=False):
    """The workload's job list for ``seed``; input files go to ``workdir``.

    ``small`` gives a minimal-size list with the same job kinds, for tests.
    """
    return _JOB_LISTS[workload](seed, workdir, small)
