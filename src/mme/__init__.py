"""Tools for comparing rational self-maps of the Riemann sphere.

Exact arithmetic over small number fields, graph-curve decomposition by
numerical monodromy, composition-identity certificates, exact comparison of
maximal-entropy measures, backward-orbit Julia-set rasters, and a
periodic-point criterion for power maps.

Importing the package loads none of its modules: each name of ``__all__``
is imported from its home module on first use (PEP 562), so a caller of the
exact layers never loads numpy or the numeric ones.
"""

from importlib import import_module

# each public name and the module that defines it
_HOMES = {
    "FieldContext": "fields",
    "FieldElement": "fields",
    "FieldError": "fields",
    "field_configure": "fields",
    "ComponentCertificate": "graphcurve",
    "analyze": "graphcurve",
    "check_counterexample_triple": "identities",
    "check_main1_relations": "identities",
    "mobius_factor_exists": "identities",
    "shared_iterate_search": "identities",
    "sigma_f_quadratic": "identities",
    "backward_orbit_sample": "measure",
    "julia_raster": "measure",
    "same_measure_test": "identities",
    "sigma_invariance_check": "identities",
    "INF": "base",
    "ConsistencyError": "base",
    "chordal": "numeric",
    "is_inf": "base",
    "ParseError": "parser",
    "parse_map": "parser",
    "BiPoly": "polys",
    "Poly": "polys",
    "graph_bipoly": "polys",
    "RootOfUnity": "powermaps",
    "is_periodic": "powermaps",
    "period": "powermaps",
    "radical": "powermaps",
    "same_periodic_points_powermaps": "powermaps",
    "CriticalData": "ratmaps",
    "MapError": "ratmaps",
    "RationalMap": "ratmaps",
    "critical_data": "ratmaps",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value
    return value
