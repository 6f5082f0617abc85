"""Exact-solution toolkit for the maximally diverse grouping problem.

Partition N elements into G groups with sizes in [a, b] so the sum of
within-group pairwise distances is maximal. The package builds the pairwise
ILP formulations explicitly, solves small and medium instances to proven
optimality, decodes pair-variable solutions back into partitions, and
benchmarks a simple heuristic against the exact optimum.
"""

from .bounds import column_bound
from .core import (
    AttributeTable,
    Column,
    DistanceMatrix,
    FeasibilityReport,
    Grouping,
    Instance,
    METRICS,
    SchemaError,
    canonicalize,
    distance_matrix,
    objective_value,
    validate_grouping,
)
from .heuristic import HeuristicResult, greedy_construct, local_search, multistart
from .model import (
    CheckReport,
    DecodeReport,
    IlpModel,
    PairAssignment,
    TheoremReport,
    TransitivityError,
    build_degree_only,
    build_equal,
    build_model,
    build_report,
    build_unequal,
    check_assignment,
    decode_partition,
    encode_grouping,
    export_lp,
    verify_group_count,
)
from .solver import (
    DEFAULT_ENUMERATION_CAP,
    OptimalResult,
    SearchState,
    SolveOptions,
    count_feasible_partitions,
    iter_feasible_partitions,
    iter_set_partitions,
    partial_value,
    solve_bnb,
    solve_bruteforce,
    solve_columns,
    upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeTable",
    "CheckReport",
    "Column",
    "DecodeReport",
    "DEFAULT_ENUMERATION_CAP",
    "DistanceMatrix",
    "FeasibilityReport",
    "Grouping",
    "HeuristicResult",
    "IlpModel",
    "Instance",
    "METRICS",
    "OptimalResult",
    "PairAssignment",
    "SchemaError",
    "SearchState",
    "SolveOptions",
    "TheoremReport",
    "TransitivityError",
    "build_degree_only",
    "build_equal",
    "build_model",
    "build_report",
    "build_unequal",
    "canonicalize",
    "check_assignment",
    "column_bound",
    "count_feasible_partitions",
    "decode_partition",
    "distance_matrix",
    "encode_grouping",
    "export_lp",
    "greedy_construct",
    "iter_feasible_partitions",
    "iter_set_partitions",
    "local_search",
    "multistart",
    "objective_value",
    "partial_value",
    "solve_bnb",
    "solve_bruteforce",
    "solve_columns",
    "upper_bound",
    "validate_grouping",
    "verify_group_count",
]
