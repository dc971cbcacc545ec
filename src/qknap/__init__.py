"""0/1 knapsack with ordinal item levels.

Item profits are qualitative grades (level 1 worst .. level k best)
rather than numbers. Selections are compared by suffix sums of their
per-level counts, which is equivalent to comparing total value under
every order-preserving numeric valuation at once. The package computes
the complete non-dominated frontier by dynamic programming, single
efficient solutions by two greedy passes, and cross-checks everything
against a brute-force oracle.

``import qknap`` loads no submodule: each public name imports its
module on first access, so a process pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCE = {
    "Valuation": "dominance",
    "dominates": "dominance",
    "equivalent": "dominance",
    "evaluate": "dominance",
    "falsification_witness": "dominance",
    "pareto_filter": "dominance",
    "suffix_sums": "dominance",
    "weakly_dominates": "dominance",
    "label_bound": "dp",
    "solve": "dp",
    "Guarantee": "greedy",
    "GreedyResult": "greedy",
    "greedy_r": "greedy",
    "greedy_w": "greedy",
    "r_lex_order": "greedy",
    "w_lex_order": "greedy",
    "GeneratorParams": "instance_io",
    "ParseError": "instance_io",
    "SplitMix64": "instance_io",
    "generate_instance": "instance_io",
    "parse_instance": "instance_io",
    "read_instance": "instance_io",
    "serialize_frontier": "instance_io",
    "serialize_instance": "instance_io",
    "FrontierResult": "model",
    "Instance": "model",
    "InvalidInstanceError": "model",
    "Item": "model",
    "Label": "model",
    "SolveStats": "model",
    "rank_cardinality_vector": "model",
    "total_weight": "model",
    "validate_instance": "model",
    "OracleGuardError": "oracle",
    "enumerate_feasible": "oracle",
    "enumerate_frontier": "oracle",
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
