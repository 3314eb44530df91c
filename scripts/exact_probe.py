"""Time fixed CLI runs at the edges of the package's budgets.

Each probe is one fixed ``mme`` command line, run in a fresh Python
process: at the edge of the degree budget, composition, iteration and a
catalog entry whose certificate composes a degree-4096 iterate; at the
edges of the sampler's budgets, two 2048 x 2048 renders of 10^5 points,
at the depth budget and at the default depth; and ``analyze-graph`` on
z^20 + 3z^7 - 2z^3 + z + 1 and on its degree-30, 40 and 60 variants (each
is the diagonal plus one component, whose factor is the exact P / (x - y)),
then at its degree budget B = ``graphcurve.DEGREE_BUDGET`` on the degree-B
variant and on one fixed dense integer rational map of degree B; then a
render of z^2 + 10^18, whose every backward orbit fails, so it exits 2;
then an iterate over the field of z^8 + (10^150 - 1) z^6 + 1, a minimal
polynomial at the digit budget ``fields.MINPOLY_DIGIT_BUDGET``; and last
one small call of each kind of subcommand, whose time is mostly the cold
start of its process.
One line per probe gives its exit code, wall seconds, peak resident memory
in MiB, the sha256 of its stdout, and its name.  There is no seed: the
probes are fixed, so two versions of the package that print the same
sha256 column printed the same reports and rasters.

A child's peak RSS, as ``os.wait4`` reports it, is at least the peak RSS
of the runner that starts it (the child shares the runner's memory until it
execs), so the runner stays light: it imports nothing from ``mme`` (it
reads B from one child process) and hashes each child's output as it
reads it.  The memory column's floor is the bare runner's peak, about
18 MiB with CPython 3.11 on x86-64 Linux, where ``python -c pass`` alone
peaks at about 13 MiB.

    python3 scripts/exact_probe.py                    # every probe
    python3 scripts/exact_probe.py --limit 1          # the first probe
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

FORTY_DIGIT_QUARTIC = (
    "(3141592653589793238462643383279502884197z^4-2718281828459045235360287471352662497757z^3"
    "+1414213562373095048801688724209698078569z+1732050807568877293527446341505872366942)"
    "/(2236067977499789696409173668731276235440z^4+1618033988749894848204586834365638117720z^2"
    "-2645751311064590590501615753639260425710)")
FLOWER = "(a^2*(z^3-3z)^2+1)/(a*(z^3-3z))"


def dense_map(d):
    """The map JSON of a fixed dense integer rational map of degree d: its
    coefficients in [-5, 5] from a fixed recurrence, the leading ones 1 and 2."""
    num = [(3 * k + 1) % 11 - 5 for k in range(d)] + [1]
    den = [(5 * k + 2) % 11 - 5 for k in range(d)] + [2]
    return json.dumps({"num": num, "den": den})


def probes(budget):
    """(name, argv) of every probe, for the degree budget ``budget``."""
    return [
        ("compose-z2000", ["compose", "--f", "z^2000+1", "--g", "z+1"]),
        ("compose-z4000", ["compose", "--f", "z^4000+1", "--g", "z+1"]),
        ("compose-z1000-rational", ["compose", "--f", "z^1000+3z^7-2", "--g", "(z^2+1)/(z-3)"]),
        ("iterate-z2-1-n12", ["iterate", "--map", "z^2-1", "--n", "12"]),
        ("iterate-z2+1/3-n12", ["iterate", "--map", "z^2+1/3", "--n", "12"]),
        ("iterate-40-digit-quartic-n4", ["iterate", "--map", FORTY_DIGIT_QUARTIC, "--n", "4"]),
        ("catalog-zieve-n63-m1", ["catalog", "run", "zieve-family", "--param", "n=63",
                                  "--param", "m=1"]),
        ("iterate-flower-2-w-n4", ["iterate", "--field", "1,1,1", "--bind", "a=2-1*w",
                                   "--map", FLOWER, "--n", "4"]),
        ("render-z2-1-count100000-depth1000", ["render", "--map", "z^2-1", "--count", "100000",
                                               "--depth", "1000", "--width", "2048",
                                               "--height", "2048"]),
        ("render-z2-1-count100000-depth40", ["render", "--map", "z^2-1", "--count", "100000",
                                             "--depth", "40", "--width", "2048",
                                             "--height", "2048"]),
        ("analyze-graph-z20", ["analyze-graph", "--map", "z^20+3*z^7-2*z^3+z+1"]),
        ("analyze-graph-z30", ["analyze-graph", "--map", "z^30+3*z^7-2*z^3+z+1"]),
        ("analyze-graph-z40", ["analyze-graph", "--map", "z^40+3*z^7-2*z^3+z+1"]),
        ("analyze-graph-z60", ["analyze-graph", "--map", "z^60+3*z^7-2*z^3+z+1"]),
        ("analyze-graph-z%d" % budget,
         ["analyze-graph", "--map", "z^%d+3*z^7-2*z^3+z+1" % budget]),
        ("analyze-graph-dense%d" % budget, ["analyze-graph", "--map", dense_map(budget)]),
        ("render-z2+10^18", ["render", "--map", "z^2+1000000000000000000"]),
        ("field-octic-150-digits", ["iterate", "--field", "1,0,0,0,0,0,%s,0,1" % ("9" * 150),
                                    "--bind", "t=w", "--map", "z^2+t", "--n", "1"]),
        # cold starts: one small call of each kind
        ("cold-compose", ["compose", "--f", "z^2+1", "--g", "(z-1)/(z+2)"]),
        ("cold-certify-readme", ["certify", "--T", "z^2(z+1)", "--R", "(1-z^2)/(z^3-1)",
                                 "--S", "(z-z^3)/(z^3-1)"]),
        ("cold-iterate-flower-2-w-n2", ["iterate", "--field", "1,1,1", "--bind", "a=2-1*w",
                                        "--map", FLOWER, "--n", "2"]),
        ("cold-catalog-zieve-n2-m1", ["catalog", "run", "zieve-family", "--param", "n=2",
                                      "--param", "m=1"]),
        ("cold-sigma", ["sigma", "--map", "(z^2+1)/(z-3)"]),
        ("cold-measure-z2-z2+1", ["measure", "--f", "z^2", "--g", "z^2+1"]),
        ("cold-powermap", ["powermap", "--df", "4", "--dg", "8", "--root", "1/3"]),
        ("cold-analyze-graph-z3-3z", ["analyze-graph", "--map", "z^3-3z"]),
        ("cold-render-z2-1-40x40", ["render", "--map", "z^2-1", "--width", "40", "--height", "40",
                                    "--count", "2000"]),
    ]


def degree_budget():
    """``graphcurve.DEGREE_BUDGET``, read in a child process."""
    res = subprocess.run([sys.executable, "-c",
                          "from mme.graphcurve import DEGREE_BUDGET; print(DEGREE_BUDGET)"],
                         cwd=str(ROOT), env=ENV, capture_output=True, text=True, check=True)
    return int(res.stdout)


def run(argv):
    """(exit code, wall seconds, peak RSS in MiB, stdout sha256) of
    ``mme argv`` in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mme.cli", *argv], cwd=str(ROOT), env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    # hashed as it is read: a 2048 x 2048 raster held whole would raise the
    # runner's own peak, and so the floor of every later probe's RSS
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    # reaped here rather than by proc.wait(), for the child's own ru_maxrss
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, help="run only the first LIMIT probes")
    args = ap.parse_args()

    for name, argv in probes(degree_budget())[:args.limit]:
        code, wall, rss, digest = run(argv)
        print("%d %.3f %.1f %s %s" % (code, wall, rss, digest, name), flush=True)


if __name__ == "__main__":
    main()
