"""Digest the output of analyze-graph over a fixed corpus of maps.

The corpus is a fixed list of maps, then maps of degree 2-8 with integer
coefficients in [-5, 5] drawn from a fixed numpy seed over Q, then maps of
degree 2-8 whose coefficients a + b w, a and b in [-3, 3], lie in Q(w),
w^2 + w + 1 = 0.  Each map runs through ``mme.cli.main(["analyze-graph",
"--map", <map JSON>])`` in this process.  The first line printed is the
sha256 of all the lines after the second; each of those gives one map's
exit code, the sha256 of its stdout and of its stderr, and the map.  Two
versions of the package that print the same first line gave every map the
same exit code, report and error message.  The second line is the sha256
of the same lines with each exit-0 report's ``basepoint`` and
``branch_points`` dropped before hashing: the floats that move when a
root or a tie in the loop layout changes in its last bits.  Two versions
that print the same second line gave every map the same exit code, error
message and exact content (bidegrees, genera, ramification, exact
polynomials).

    python3 scripts/graph_digest.py                   # the whole corpus
    python3 scripts/graph_digest.py --limit 4         # its first four maps
"""

import argparse
import contextlib
import hashlib
import io
import json

import numpy as np

from mme.cli import main as cli_main
from mme.fields import FieldContext, field_configure
from mme.polys import Poly
from mme.ratmaps import MapError, RationalMap
from mme.serialize import map_to_json

FIXED = [
    {"num": [0, 0, 1], "den": [1]},  # z^2
    {"num": [0, -3, 0, 1], "den": [1]},  # Chebyshev T_3
    {"num": [0, 0, 1, 1], "den": [1]},  # 0 is a critical point and its value
    {"num": [1, 0, 0, 0, 0, 0, 1], "den": [0, 0, 0, 1]},  # (z^6 + 1)/z^3
    {"num": [0, 10**6, 1], "den": [1]},  # a critical value near infinity
    {"num": [-3, -4, -2, 1, -2], "den": [0, -2, -2, 3, -5]},  # critical values 4.8e-8 apart
    # a polynomial with a 10-digit denominator
    {"num": [-818, -2232631, -337394035, -8884413, -197, -2264], "den": [-6251987248]},
]
SEED = 36
PER_DEGREE = 40  # random maps over Q of each degree 2-8
PER_DEGREE_W = 10  # random maps over Q(w) of each degree 2-8


def random_map(ctx, degree, rng, coords):
    """A map of exact degree ``degree`` whose coefficients have integer
    coordinates drawn by ``coords``."""
    while True:
        num = [ctx.element(coords()) for _ in range(degree + 1)]
        den = [ctx.element(coords()) for _ in range(degree + 1)]
        if num[-1].is_zero():
            num[-1] = ctx.one
        if all(c.is_zero() for c in den):
            continue
        try:
            f = RationalMap(Poly(ctx, num), Poly(ctx, den))
        except MapError:
            continue
        if f.degree == degree:
            return f


def corpus():
    """The map JSON texts of the corpus, in order."""
    rng = np.random.default_rng(SEED)
    Q, W = FieldContext.rationals(), field_configure([1, 1, 1])
    maps = [json.dumps(obj) for obj in FIXED]
    for ctx, count, coords in ((Q, PER_DEGREE, lambda: [int(rng.integers(-5, 6))]),
                               (W, PER_DEGREE_W, lambda: rng.integers(-3, 4, size=2).tolist())):
        for d in range(2, 9):
            maps += [json.dumps(map_to_json(random_map(ctx, d, rng, coords)))
                     for _ in range(count)]
    return maps


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(spec):
    """The exit code, stdout and stderr of analyze-graph on the map JSON ``spec``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["analyze-graph", "--map", spec])
    return code, out.getvalue(), err.getvalue()


def exact_content(code, out):
    """The stdout ``out`` of an analyze-graph run that exited ``code``, with
    the report's ``basepoint`` and ``branch_points`` dropped if it exited 0."""
    if code != 0:
        return out
    report = json.loads(out)
    del report["basepoint"], report["branch_points"]
    return json.dumps(report)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, help="run only the first LIMIT maps")
    args = ap.parse_args()

    lines, exact = [], []
    for spec in corpus()[:args.limit]:
        code, out, err = run(spec)
        lines.append("%d %s %s %s" % (code, sha256(out), sha256(err), spec))
        exact.append("%d %s %s %s" % (code, sha256(exact_content(code, out)), sha256(err), spec))
    print(sha256("\n".join(lines)))
    print(sha256("\n".join(exact)))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
