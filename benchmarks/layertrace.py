"""Per-layer tracing of `mme`, installed from outside the program.

A layer is one module of ``src/mme``.  :class:`Tracer` wraps each layer's
public functions and methods (plus the arithmetic dunders and a few private
functions that carry a metric) and replaces every binding of them, so a name
imported into another module, such as ``projective_roots`` in
``mme.graphcurve`` and ``mme.measure``, is traced too.

Leaf calls run hundreds of thousands of times per job, so spans are
aggregated per name instead of recorded one per call: calls, total time and
self time (total minus the time of traced calls made inside it).  Every
traced call runs under a traced ``cli.main``, so the self times of all
layers add up to the traced wall time of the jobs.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "parser", "serialize", "catalog", "identities", "measure",
          "graphcurve", "ratmaps", "polys", "fields", "numeric")

# private functions that carry a per-layer metric
PRIVATE = {"graphcurve": ("_branch_data", "_track_polyline")}
DUNDERS = frozenset((
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__divmod__",
    "__mod__", "__floordiv__",
))
# a bare attribute store, far cheaper than the wrapper that would time it
SKIP = frozenset(("fields.FieldElement.__init__",))
# spans whose nesting other metrics ask about ("calls made inside X")
NESTING = frozenset(("graphcurve.monodromy", "measure.backward_orbit_sample",
                     "numeric.certified_roots"))


def _add(counter, amount):
    def hook(tracer, args, result):
        tracer.counts[counter] += amount(args, result)
    return hook


def _count_inside(outer, counter):
    def hook(tracer, args, result):
        if tracer.depth[outer]:
            tracer.counts[counter] += 1
    return hook


HOOKS = {
    # a scalar factor is coerced to a one-coefficient polynomial
    "polys.Poly.__mul__": _add("polys.mul.coeff_products", lambda args, result: len(
        args[0].coeffs) * len(getattr(args[1], "coeffs", (1,)))),
    "ratmaps.RationalMap.compose": _add("ratmaps.compose.out_degree_sum",
                                        lambda args, result: result.degree),
    "graphcurve.monodromy": _add("graphcurve.loops",
                                 lambda args, result: len(result.permutations)),
    "measure.backward_orbit_sample": _add("measure.sample.points",
                                          lambda args, result: len(result)),
    "serialize.dumps_report": _add("serialize.dumps_report.bytes",
                                   lambda args, result: len(result.encode("utf-8"))),
    "graphcurve.reconstruct_component": _add("graphcurve.reconstruct.ok",
                                             lambda args, result: result is not None),
    "numeric.rationalize_into_field": _add("numeric.rationalize.ok",
                                           lambda args, result: result is not None),
    "numeric.projective_roots": _count_inside("graphcurve.monodromy", "graphcurve.fiber_solves"),
    "ratmaps.RationalMap.preimages": _count_inside("measure.backward_orbit_sample",
                                                   "measure.sample.solves"),
    "numeric.mpmath_polyroots": _count_inside("numeric.certified_roots",
                                              "numeric.mpmath_escalations"),
}


class Tracer:
    """Aggregated spans over the layers of `mme`; off until ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans = {}  # name -> [layer, calls, total_s, self_s]
        self.counts = collections.Counter()
        self.depth = collections.Counter()
        self._stack = []
        self._undo = []

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every layer and rebind each wrapped object wherever it is bound."""
        import mpmath

        for layer in LAYERS:
            importlib.import_module("mme." + layer)
        bindings = [m for name, m in sys.modules.items()
                    if name == "mme" or name.startswith("mme.")]
        for layer in LAYERS:
            mod = sys.modules["mme." + layer]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                        not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    self._rebind(bindings, obj, self._wrap(layer + "." + name, layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        graphcurve = sys.modules["mme.graphcurve"]
        self._rebind([graphcurve], graphcurve.linear_sum_assignment, self._wrap(
            "graphcurve.assign", "graphcurve", graphcurve.linear_sum_assignment))
        self._rebind([mpmath], mpmath.polyroots,
                     self._wrap("numeric.mpmath_polyroots", "numeric", mpmath.polyroots))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap_class(self, layer, cls):
        wrapped = {}
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or (attr.startswith("_") and attr not in DUNDERS):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, fn.__name__)
            if name in SKIP:
                continue
            if id(fn) not in wrapped:  # __radd__ = __add__ shares one span
                wrapped[id(fn)] = self._wrap(name, layer, fn)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, wrapped[id(fn)])

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, layer, fn):
        rec = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])
        hook = HOOKS.get(name)
        nested = name in NESTING
        stack, depth, clock = self._stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            if nested:
                depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if nested:
                    depth[name] -= 1
                rec[1] += 1
                rec[2] += dt
                rec[3] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.bench_span = name
        return wrapper

    # -- metrics -------------------------------------------------------------------

    def calls(self, name):
        return self.spans[name][1] if name in self.spans else 0

    def total_s(self, name):
        return self.spans[name][2] if name in self.spans else 0.0

    def self_s(self, name):
        return self.spans[name][3] if name in self.spans else 0.0

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _calls, _total, own in self.spans.values():
            out[layer] += own
        return out

    def metrics(self, untraced_s, traced_s, traced_wall_s):
        """Per-layer metrics as {name: (value, unit)} for one traced pass.

        ``untraced_s`` and ``traced_s`` are the two passes' times net of host
        steal, for the overhead; ``traced_wall_s`` is the traced pass's plain
        wall time, which the self times (plain wall times too) add up to."""
        read = {"calls": self.calls, "self": self.self_s, "total": self.total_s}
        m = {name: read[kind](span) for name, kind, span in SPAN_METRICS}
        c = self.counts
        m.update((name, c[name]) for name in COUNT_METRICS)

        def ratio(num, den):
            return num / den if den else 0.0

        m["graphcurve.analyze.retries"] = (self.calls("graphcurve.build_graph")
                                           - self.calls("graphcurve.analyze"))
        m["graphcurve.loop_s"] = ratio(self.total_s("graphcurve.monodromy"),
                                       c["graphcurve.loops"])
        m["graphcurve.reconstruct.ok_ratio"] = ratio(c["graphcurve.reconstruct.ok"],
                                                     m["graphcurve.reconstruct.calls"])
        m["numeric.escalation_ratio"] = ratio(c["numeric.mpmath_escalations"],
                                              m["numeric.certified_roots.calls"])
        m["numeric.rationalize.ok_ratio"] = ratio(c["numeric.rationalize.ok"],
                                                  m["numeric.rationalize.calls"])
        m["measure.sample.kept_ratio"] = ratio(c["measure.sample.points"],
                                               c["measure.sample.solves"])
        layers = self.layer_self_s()
        for layer, own in layers.items():
            m["layer.%s.self_s" % layer] = own
        m["trace.wall_s"] = traced_wall_s
        m["trace.self_sum_frac"] = ratio(sum(layers.values()), traced_wall_s)
        m["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s)
        return {name: (value, unit_of(name)) for name, value in m.items()}


# (metric, calls | self | total, span)
SPAN_METRICS = (
    ("graphcurve.build_graph.self_s", "self", "graphcurve.build_graph"),
    ("graphcurve.chart_attempts", "calls", "graphcurve._branch_data"),
    ("graphcurve.monodromy.self_s", "self", "graphcurve.monodromy"),
    ("graphcurve.assign.calls", "calls", "graphcurve.assign"),
    ("graphcurve.assign.self_s", "self", "graphcurve.assign"),
    ("graphcurve.components.self_s", "self", "graphcurve.components"),
    ("graphcurve.reconstruct.calls", "calls", "graphcurve.reconstruct_component"),
    ("graphcurve.reconstruct.self_s", "self", "graphcurve.reconstruct_component"),
    ("numeric.projective_roots.calls", "calls", "numeric.projective_roots"),
    ("numeric.projective_roots.self_s", "self", "numeric.projective_roots"),
    ("numeric.certified_roots.calls", "calls", "numeric.certified_roots"),
    ("numeric.rationalize.calls", "calls", "numeric.rationalize_into_field"),
    ("numeric.chordal.calls", "calls", "numeric.chordal"),
    ("measure.sample.calls", "calls", "measure.backward_orbit_sample"),
    ("measure.sample.self_s", "self", "measure.backward_orbit_sample"),
    ("measure.distance.calls", "calls", "measure.measure_distance"),
    ("measure.distance.self_s", "self", "measure.measure_distance"),
    ("measure.raster.self_s", "self", "measure.julia_raster"),
    ("polys.mul.calls", "calls", "polys.Poly.__mul__"),
    ("polys.mul.self_s", "self", "polys.Poly.__mul__"),
    ("polys.divmod.calls", "calls", "polys.Poly.__divmod__"),
    ("polys.divmod.self_s", "self", "polys.Poly.__divmod__"),
    ("polys.gcd.calls", "calls", "polys.Poly.gcd"),
    ("polys.gcd.self_s", "self", "polys.Poly.gcd"),
    ("polys.bipoly_divide_exact.self_s", "self", "polys.BiPoly.divide_exact"),
    ("polys.graph_bipoly.self_s", "self", "polys.graph_bipoly"),
    ("ratmaps.compose.calls", "calls", "ratmaps.RationalMap.compose"),
    ("ratmaps.compose.self_s", "self", "ratmaps.RationalMap.compose"),
    ("ratmaps.init.self_s", "self", "ratmaps.RationalMap.__init__"),
    ("ratmaps.preimages.calls", "calls", "ratmaps.RationalMap.preimages"),
    ("ratmaps.preimages.self_s", "self", "ratmaps.RationalMap.preimages"),
    ("ratmaps.critical_data.self_s", "self", "ratmaps.critical_data"),
    ("fields.mul.calls", "calls", "fields.FieldElement.__mul__"),
    ("fields.mul.self_s", "self", "fields.FieldElement.__mul__"),
    ("fields.add.calls", "calls", "fields.FieldElement.__add__"),
    ("fields.add.self_s", "self", "fields.FieldElement.__add__"),
    ("fields.inverse.calls", "calls", "fields.FieldElement.inverse"),
    ("fields.inverse.self_s", "self", "fields.FieldElement.inverse"),
    ("identities.mobius_factor.calls", "calls", "identities.mobius_factor_exists"),
    ("identities.mobius_factor.self_s", "self", "identities.mobius_factor_exists"),
    ("identities.shared_iterate.self_s", "self", "identities.shared_iterate_search"),
    # maps_equal is defined in ratmaps and imported by name into identities
    ("identities.maps_equal.calls", "calls", "ratmaps.maps_equal"),
    ("catalog.entry.self_s", "self", "catalog.entry"),
    ("catalog.run.self_s", "self", "catalog.CatalogEntry.run"),
    ("cli.main.s", "total", "cli.main"),
    ("parser.parse_map.self_s", "self", "parser.parse_map"),
    ("serialize.dumps_report.self_s", "self", "serialize.dumps_report"),
)
COUNT_METRICS = ("graphcurve.loops", "graphcurve.fiber_solves", "numeric.mpmath_escalations",
                 "measure.sample.points", "polys.mul.coeff_products",
                 "ratmaps.compose.out_degree_sum", "serialize.dumps_report.bytes")
# every span some metric reads
Tracer.METRIC_SPANS = frozenset([span for _n, _k, span in SPAN_METRICS]
                                + ["graphcurve.analyze", "graphcurve.monodromy"])


def unit_of(name):
    if name.endswith("_s") or name == "cli.main.s":
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "1"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"
