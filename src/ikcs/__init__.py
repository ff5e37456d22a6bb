"""Irreversible k-threshold conversion sets: simulation, exact and
polynomial solvers, hardness-reduction builders, and torus constructions.
"""

from .graph import Graph, GraphError, ParseError, graph_from_json, parse_edge_list
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
from .polymatroid import (
    ConsistencyError,
    PolymatroidInstance,
    max_matching,
    min_spanning_set,
    nu_algebraic,
    nu_bruteforce,
)
from .deg3 import Deg3Result, min_i2cs_maxdeg3, solve_deg3
from .satred import (
    CnfFormula,
    DimacsError,
    ReductionOutput,
    build_reduction,
    check_equivalence,
    parse_dimacs,
    satisfying_seed,
)
from .torus import TorusError, TorusGrid, construct_3cs, search_tile_patterns

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
