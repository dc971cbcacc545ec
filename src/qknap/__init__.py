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
    name: module
    for module, names in (
        ("dominance", "OracleGuardError Valuation dominates enumerate_feasible enumerate_frontier "
         "equivalent evaluate falsification_witness pareto_filter suffix_sums weakly_dominates"),
        ("dp", "label_bound solve"),
        ("generator", "GeneratorParams SplitMix64 generate_instance serialize_instance"),
        ("greedy", "Guarantee GreedyResult greedy_r greedy_w r_lex_order w_lex_order"),
        ("instance_io", "ParseError parse_instance read_instance serialize_frontier"),
        ("model", "FrontierResult Instance InvalidInstanceError Item Label SolveStats "
         "rank_cardinality_vector total_weight validate_instance"),
    )
    for name in names.split()
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
