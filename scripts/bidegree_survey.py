"""Survey graph-curve decompositions for random rational maps.

For each degree, draws maps with small integer coefficients, decomposes
the graph curve {G(x)=G(y)} by monodromy, and tabulates the observed
component bidegrees and genera.  The generic picture is one diagonal line
plus one irreducible component of bidegree (d-1, d-1) and genus (d-2)^2.

    python3 scripts/bidegree_survey.py --degrees 2 3 4 --per-degree 10
"""

import argparse
import collections
import time

import numpy as np

from mme.fields import FieldContext
from mme.graphcurve import analyze
from mme.polys import Poly
from mme.ratmaps import MapError, RationalMap


def random_map(degree, rng, bound=5):
    ctx = FieldContext.rationals()
    while True:
        num = [int(rng.integers(-bound, bound + 1)) for _ in range(degree + 1)]
        den = [int(rng.integers(-bound, bound + 1)) for _ in range(degree + 1)]
        num[-1] = num[-1] or 1
        if all(c == 0 for c in den):
            continue
        try:
            f = RationalMap(Poly(ctx, num), Poly(ctx, den))
        except MapError:
            continue
        if f.degree == degree:
            return f


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--per-degree", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    for d in args.degrees:
        shapes = collections.Counter()
        genera = collections.Counter()
        t0 = time.time()
        for k in range(args.per_degree):
            f = random_map(d, rng)
            report, *_ = analyze(f, reconstruct=False)
            comps = sorted(
                (tuple(c["bidegree"]), c["genus"]) for c in report["components"]
            )
            shapes[tuple(bd for bd, _g in comps)] += 1
            for bd, g in comps:
                if bd != (1, 1):
                    genera[(bd[0], g)] += 1
        print("degree %d  (%.1fs for %d maps)" % (d, time.time() - t0, args.per_degree))
        for shape, n in shapes.most_common():
            print("  bidegrees %-28s %d" % (str(list(shape)), n))
        for (r, g), n in sorted(genera.items()):
            print("  r=%d components with genus %d: %d" % (r, g, n))


if __name__ == "__main__":
    main()
