"""Render the Julia set of f(z) = a(z^3-3z) + 1/(a(z^3-3z)) for a given a.

The parameter is read as two rationals (real and imaginary part of a), the
map is built exactly over Q(i), and the backward-orbit density is written
as a binary PPM.

    python3 scripts/render_flower.py --re 4843/10000 --im 243/3125 \
        --out flower.ppm
"""

import argparse
from fractions import Fraction

from mme.fields import field_configure
from mme.measure import julia_raster, lit_fraction
from mme.polys import Poly
from mme.ratmaps import RationalMap


def flower_map(re, im):
    ctx = field_configure([1, 0, 1])
    i = ctx.gen()
    a = ctx.from_rational(re) + i * ctx.from_rational(im)
    x = Poly.x(ctx)
    T = RationalMap(x**3 - x.scale(ctx.from_rational(3)), Poly.one(ctx))
    R = RationalMap(x * x.scale(a * a) + Poly.one(ctx), x.scale(a))
    return R.compose(T)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--re", type=Fraction, default=Fraction(4843, 10000))
    ap.add_argument("--im", type=Fraction, default=Fraction(243, 3125))
    ap.add_argument("--size", type=int, default=400)
    ap.add_argument("--window", type=float, default=2.2)
    ap.add_argument("--count", type=int, default=40000)
    ap.add_argument("--depth", type=int, default=35)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="flower.ppm")
    args = ap.parse_args()

    f = flower_map(args.re, args.im)
    w = args.window
    blob = julia_raster(f, args.size, args.size, (-w, w, -w, w),
                        count=args.count, depth=args.depth, seed=args.seed)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    frac = lit_fraction(blob)
    print("wrote %s (%dx%d), lit fraction %r (%d pixels)"
          % (args.out, args.size, args.size, frac, round(frac * args.size * args.size)))


if __name__ == "__main__":
    main()
