"""Command-line interface.

Exit codes: 0 success, 1 at least one FAIL verdict in a certificate,
2 usage or input errors, 3 internal-consistency violations and numerical
failures (a cross-check inside the analysis failed, a path was lost or a
root solve was not certified, which indicates a numerical fault rather
than a property of the input).

Each handler imports the modules its subcommand runs, so only
``analyze-graph`` and ``render`` load numpy and the numeric layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .base import BasepointError, ConsistencyError, RootFindingError, TrackingError
from .fields import FieldContext, FieldElement, FieldError, field_configure, to_fraction
from .parser import ParseError, parse_binding_value, parse_map
from .ratmaps import DEFAULT_DEGREE_BUDGET, ITERATE_HEIGHT_BUDGET, MapError, SizeBudgetError
from .serialize import dumps_report, element_to_json, map_from_json, map_to_json, moebius_to_json


class UsageError(ValueError):
    pass


def _context_from_args(args):
    field = getattr(args, "field", None)
    if not field:
        return FieldContext.rationals()
    try:
        coeffs = [to_fraction(c) for c in field.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad --field %r: %s" % (field, exc))
    return field_configure(coeffs)


def _bindings_from_args(ctx, args):
    out = {}
    for item in getattr(args, "bind", None) or []:
        if "=" not in item:
            raise UsageError("--bind expects name=value, got %r" % item)
        name, _, value = item.partition("=")
        name = name.strip()
        if len(name) != 1 or not name.isalpha():
            raise UsageError("symbols are single letters, got %r" % name)
        out[name] = parse_binding_value(ctx, value)
    return out


def _load_map(spec, args):
    if spec.startswith("@") or spec.lstrip().startswith("{"):
        if spec.startswith("@"):
            with open(spec[1:], "rb") as fh:
                spec = fh.read()
        try:
            obj = json.loads(spec)
        except ValueError as exc:  # not JSON, or an integer past Python's digit limit
            raise MapError("bad map JSON: %s" % exc) from None
        return map_from_json(obj)
    ctx = _context_from_args(args)
    return parse_map(spec, ctx, _bindings_from_args(ctx, args))


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_bytes(args, blob):
    out = getattr(args, "out", None)
    if out:
        with open(out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)


# -- subcommands --------------------------------------------------------------------


def _cmd_analyze_graph(args):
    from .graphcurve import analyze

    f = _load_map(args.map, args)
    report, _curve, _mon, _certs = analyze(f, reconstruct=not args.no_reconstruct)
    _emit(args, dumps_report(report))
    return 0


def _cmd_certify(args):
    from .identities import check_counterexample_triple, check_main1_relations

    if args.R or args.S or args.T:
        if not (args.R and args.S and args.T):
            raise UsageError("certify needs all of --R, --S, --T (or --F and --G)")
        R, S, T = (_load_map(s, args) for s in (args.R, args.S, args.T))
        rep = check_counterexample_triple(R, S, T)
    elif args.F and args.G:
        rep = check_main1_relations(_load_map(args.F, args), _load_map(args.G, args))
    else:
        raise UsageError("certify needs --R/--S/--T or --F/--G")
    _emit(args, dumps_report(rep.as_dict()))
    return 0 if rep.passed() else 1


def _cmd_measure(args):
    from .identities import same_measure_test

    f = _load_map(args.f, args)
    g = _load_map(args.g, args)
    rep = same_measure_test(f, g)
    _emit(args, dumps_report(rep.as_dict()))
    return 0


def _cmd_render(args):
    from .measure import julia_raster, lit_fraction

    f = _load_map(args.map, args)
    try:
        window = tuple(float(v) for v in args.window.split(","))
        if len(window) != 4:
            raise ValueError
    except ValueError:
        raise UsageError("--window expects re_min,re_max,im_min,im_max")
    blob = julia_raster(
        f,
        args.width,
        args.height,
        window,
        count=args.count,
        depth=args.depth,
        seed=args.seed,
    )
    _emit_bytes(args, blob)
    if args.stats:
        # unrounded, so that a few lit pixels do not read as none
        frac = lit_fraction(blob)
        print("lit_fraction=%r lit_pixels=%d" % (frac, round(frac * args.width * args.height)),
              file=sys.stderr)
    return 0


# powermap factors its degrees and root denominators; below this bound that is cheap
POWERMAP_BOUND = 2**64


def _cmd_powermap(args):
    from .powermaps import (
        RootOfUnity,
        is_periodic,
        period,
        radical,
        same_periodic_points_powermaps,
    )

    if any(d is not None and d < 2 for d in (args.df, args.dg)):
        raise UsageError("--df and --dg are power-map degrees, integers >= 2")
    if any(d is not None and d >= POWERMAP_BOUND for d in (args.df, args.dg)):
        raise UsageError("--df and --dg must be below 2^64")
    report = {}
    if args.df and args.dg:
        report["df"], report["dg"] = args.df, args.dg
        report["radicals"] = [radical(args.df), radical(args.dg)]
        report["same_periodic_points"] = same_periodic_points_powermaps(args.df, args.dg)
    if args.root:
        try:
            a, _, b = args.root.partition("/")
            z = RootOfUnity.reduced(int(a), int(b))
        except (ValueError, TypeError):
            raise UsageError("--root expects a/b for e^(2*pi*i*a/b)")
        if z.b >= POWERMAP_BOUND:
            raise UsageError("--root denominator must be below 2^64")
        entry_ = {"root": "%d/%d" % (z.a, z.b)}
        for d in filter(None, (args.df, args.dg)):
            entry_["d=%d" % d] = {"periodic": is_periodic(z, d), "period": period(z, d)}
        report["root_of_unity"] = entry_
    if not report:
        raise UsageError("powermap needs --df/--dg and/or --root")
    _emit(args, dumps_report(report))
    return 0


def _cmd_catalog(args):
    from .catalog import ENTRY_NAMES, entry, iterate_square_identity_check

    if args.action == "list":
        _emit(args, dumps_report({"entries": list(ENTRY_NAMES)}))
        return 0
    if not args.name:
        raise UsageError("catalog run needs an entry name")
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise UsageError("--param expects name=value, got %r" % item)
        key, _, value = item.partition("=")
        params[key.strip()] = value.strip()
    e = entry(args.name, params)
    rep = e.run()
    payload = rep.as_dict()
    payload["entry"] = e.name
    payload["params"] = {k: element_to_json(v) if isinstance(v, FieldElement) else str(v)
                         for k, v in e.params.items()}
    payload["expected"] = [list(x) for x in e.expected]
    if e.name == "chebyshev-flower":
        payload["iterate_square_identity"] = iterate_square_identity_check(
            e.params["a"]
        )
    _emit(args, dumps_report(payload))
    return 0 if rep.passed() else 1


def _cmd_compose(args):
    f = _load_map(args.f, args)
    g = _load_map(args.g, args)
    if f.degree * g.degree > DEFAULT_DEGREE_BUDGET:
        raise SizeBudgetError("degree %d * %d of f∘g exceeds the composite-degree budget %d"
                              % (f.degree, g.degree, DEFAULT_DEGREE_BUDGET))
    if f.compose_height_bound(g) > ITERATE_HEIGHT_BUDGET:
        raise SizeBudgetError("f∘g may have coefficients of more than %d bits, the iterate budget"
                              % ITERATE_HEIGHT_BUDGET)
    _emit(args, dumps_report(map_to_json(f.compose(g))))
    return 0


def _cmd_iterate(args):
    from .identities import shared_iterate_search

    f = _load_map(args.map, args)
    if args.shared_with:
        g = _load_map(args.shared_with, args)
        pair = shared_iterate_search(f, g, budget=args.budget)
        _emit(args, dumps_report({"shared_iterate": list(pair) if pair else None,
                                  "budget": args.budget}))
        return 0
    _emit(args, dumps_report(map_to_json(f.iterate(args.n, budget=args.budget))))
    return 0


def _cmd_sigma(args):
    from .identities import sigma_f_quadratic

    f = _load_map(args.map, args)
    _emit(args, dumps_report(moebius_to_json(sigma_f_quadratic(f))))
    return 0


@functools.cache
def build_parser():
    """The ``mme`` argument parser, built on first use and then reused:
    building it costs far more than parsing one command line."""
    ap = argparse.ArgumentParser(
        prog="mme",
        description="Certify relationships between rational maps sharing their "
        "measure of maximal entropy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="minimal polynomial, ascending, e.g. '1,1,1'")
        p.add_argument("--bind", action="append", help="symbol binding, e.g. a=1+w")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("analyze-graph", help="decompose the graph curve of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--no-reconstruct", action="store_true")
    common(p)
    p.add_argument("--seed", type=int, help="ignored: the loop layout is deterministic")
    p.set_defaults(func=_cmd_analyze_graph)

    p = sub.add_parser("certify", help="composition-identity certificates")
    for name in ("R", "S", "T", "F", "G"):
        p.add_argument("--" + name)
    common(p)
    p.add_argument("--seed", type=int, help="ignored: every certificate is exact")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("measure", help="compare maximal-entropy measures exactly")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    common(p)
    for name in ("--count", "--depth", "--seed"):
        p.add_argument(name, type=int, help="ignored: measure draws no cloud")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("render", help="Julia-set raster (binary PPM)")
    p.add_argument("--map", required=True)
    p.add_argument("--width", type=int, default=400)
    p.add_argument("--height", type=int, default=400)
    p.add_argument("--window", default="-2.5,2.5,-2.5,2.5")
    p.add_argument("--count", type=int, default=4000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--stats", action="store_true")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("powermap", help="periodic-point criteria for z^d")
    p.add_argument("--df", type=int)
    p.add_argument("--dg", type=int)
    p.add_argument("--root", help="a/b for the root of unity e^(2*pi*i*a/b)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_powermap)

    p = sub.add_parser("catalog", help="built-in example families")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", help="e.g. a=1+w or n=2")
    p.add_argument("--seed", type=int, help="ignored: every certificate is exact")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("compose", help="exact composition f(g(z))")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("iterate", help="exact iterate or shared-iterate search")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--budget", type=int, default=DEFAULT_DEGREE_BUDGET)
    p.add_argument("--shared-with", help="search f^n = g^m instead")
    common(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("sigma", help="the degree-2 fiber involution sigma_f")
    p.add_argument("--map", required=True)
    common(p)
    p.set_defaults(func=_cmd_sigma)

    return ap


# options whose value may start with '-': a minimal polynomial, a map, a root
# a/b or a raster window
DASH_VALUED = frozenset("--" + name for name in (
    "field", "map", "f", "g", "R", "S", "T", "F", "G", "shared-with", "root", "window"))


def _join_dash_values(argv):
    """Rewrite '--field -2,0,0,1' as '--field=-2,0,0,1', and '--f -z^2' as '--f=-z^2'.

    argparse takes a value that starts with '-' and is not a plain number
    for an option, so a value with a leading minus sign would otherwise
    need the '=' form.  Only a token with a single leading '-' is joined.
    """
    out = []
    for arg in argv:
        if out and out[-1] in DASH_VALUED and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, ParseError, MapError, FieldError, SizeBudgetError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ConsistencyError,) as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return 3
    except (TrackingError, BasepointError, RootFindingError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
