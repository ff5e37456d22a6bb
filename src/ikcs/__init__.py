"""Irreversible k-threshold conversion sets: simulation, exact and
polynomial solvers, hardness-reduction builders, and torus constructions.
"""

import importlib

from .graph import (
    ConsistencyError,
    Graph,
    GraphError,
    ParseError,
    graph_from_json,
    parse_edge_list,
)
from .percolation import (
    PercolationTrace,
    forced_vertices,
    is_conversion_set,
    run,
    stuck_certificate,
)
from .exact import (
    SearchBudgetExceeded,
    has_conversion_set_of_size,
    min_conversion_set,
)

# Names served on first access (PEP 562), so that importing the package, or
# `ikcs.cli`, loads neither numpy nor the solvers a command does not run.
_LAZY = {
    "PolymatroidInstance": "polymatroid",
    "max_matching": "polymatroid",
    "min_spanning_set": "polymatroid",
    "nu_algebraic": "polymatroid",
    "nu_bruteforce": "polymatroid",
    "Deg3Result": "deg3",
    "min_i2cs_maxdeg3": "deg3",
    "solve_deg3": "deg3",
    "CnfFormula": "satred",
    "DimacsError": "satred",
    "ReductionOutput": "satred",
    "build_reduction": "satred",
    "check_equivalence": "satred",
    "parse_dimacs": "satred",
    "satisfying_seed": "satred",
    "TorusError": "torus",
    "TorusGrid": "torus",
    "construct_3cs": "torus",
    "search_tile_patterns": "tilesearch",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphError",
    "ParseError",
    "graph_from_json",
    "parse_edge_list",
    "PercolationTrace",
    "run",
    "is_conversion_set",
    "stuck_certificate",
    "forced_vertices",
    "min_conversion_set",
    "has_conversion_set_of_size",
    "SearchBudgetExceeded",
    "PolymatroidInstance",
    "ConsistencyError",
    "nu_bruteforce",
    "nu_algebraic",
    "max_matching",
    "min_spanning_set",
    "Deg3Result",
    "solve_deg3",
    "min_i2cs_maxdeg3",
    "CnfFormula",
    "DimacsError",
    "parse_dimacs",
    "build_reduction",
    "ReductionOutput",
    "satisfying_seed",
    "check_equivalence",
    "TorusGrid",
    "TorusError",
    "construct_3cs",
    "search_tile_patterns",
    "__version__",
]
