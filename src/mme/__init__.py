"""Tools for comparing rational self-maps of the Riemann sphere.

Exact arithmetic over small number fields, graph-curve decomposition by
numerical monodromy, composition-identity certificates, exact comparison of
maximal-entropy measures, backward-orbit Julia-set rasters, and a
periodic-point criterion for power maps.
"""

from .fields import FieldContext, FieldElement, FieldError, field_configure
from .graphcurve import ComponentCertificate, analyze
from .identities import (
    check_counterexample_triple,
    check_main1_relations,
    mobius_factor_exists,
    shared_iterate_search,
    sigma_f_quadratic,
)
from .measure import (
    backward_orbit_sample,
    julia_raster,
    same_measure_test,
    sigma_invariance_check,
)
from .numeric import INF, ConsistencyError, chordal, is_inf
from .parser import ParseError, parse_map
from .polys import BiPoly, Poly, graph_bipoly
from .powermaps import RootOfUnity, is_periodic, period, radical, \
    same_periodic_points_powermaps
from .ratmaps import CriticalData, MapError, RationalMap, critical_data

__all__ = [
    "FieldContext",
    "FieldElement",
    "FieldError",
    "field_configure",
    "ComponentCertificate",
    "analyze",
    "check_counterexample_triple",
    "check_main1_relations",
    "mobius_factor_exists",
    "shared_iterate_search",
    "sigma_f_quadratic",
    "backward_orbit_sample",
    "julia_raster",
    "same_measure_test",
    "sigma_invariance_check",
    "INF",
    "ConsistencyError",
    "chordal",
    "is_inf",
    "ParseError",
    "parse_map",
    "BiPoly",
    "Poly",
    "graph_bipoly",
    "RootOfUnity",
    "is_periodic",
    "period",
    "radical",
    "same_periodic_points_powermaps",
    "CriticalData",
    "MapError",
    "RationalMap",
    "critical_data",
]
