"""0/1 knapsack with ordinal item levels.

Item profits are qualitative grades (level 1 worst .. level k best)
rather than numbers. Selections are compared by suffix sums of their
per-level counts, which is equivalent to comparing total value under
every order-preserving numeric valuation at once. The package computes
the complete non-dominated frontier by dynamic programming, single
efficient solutions by two greedy passes, and cross-checks everything
against a brute-force oracle.
"""

from .dominance import (
    Valuation,
    dominates,
    equivalent,
    evaluate,
    falsification_witness,
    pareto_filter,
    suffix_sums,
    weakly_dominates,
)
from .dp import label_bound, solve
from .greedy import Guarantee, GreedyResult, greedy_r, greedy_w, r_lex_order, w_lex_order
from .instance_io import (
    GeneratorParams,
    ParseError,
    SplitMix64,
    generate_instance,
    parse_instance,
    serialize_frontier,
    serialize_instance,
)
from .model import (
    FrontierResult,
    Instance,
    InvalidInstanceError,
    Item,
    Label,
    LabelMatrix,
    SolveStats,
    rank_cardinality_vector,
    total_weight,
    validate_instance,
)
from .oracle import OracleGuardError, enumerate_feasible, enumerate_frontier

__version__ = "0.1.0"

__all__ = [
    "FrontierResult",
    "GeneratorParams",
    "GreedyResult",
    "Guarantee",
    "Instance",
    "InvalidInstanceError",
    "Item",
    "Label",
    "LabelMatrix",
    "OracleGuardError",
    "ParseError",
    "SolveStats",
    "SplitMix64",
    "Valuation",
    "dominates",
    "enumerate_feasible",
    "enumerate_frontier",
    "equivalent",
    "evaluate",
    "falsification_witness",
    "generate_instance",
    "greedy_r",
    "greedy_w",
    "label_bound",
    "pareto_filter",
    "parse_instance",
    "r_lex_order",
    "rank_cardinality_vector",
    "serialize_frontier",
    "serialize_instance",
    "solve",
    "suffix_sums",
    "total_weight",
    "validate_instance",
    "w_lex_order",
    "weakly_dominates",
]
