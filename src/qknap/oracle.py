"""Exhaustive reference solver: enumerate every feasible subset.

Deliberately simple and slow; exists to cross-validate the dynamic
program and the greedy guarantees on small instances. Guarded against
accidental use on instances where 2^n is no longer a joke.
"""

from __future__ import annotations

import time
from typing import Iterator

from .dominance import pareto_filter
from .model import FrontierResult, Instance, Label, SolveStats, Subset, validate_instance

__all__ = ["ENUMERATION_GUARD", "OracleGuardError", "enumerate_feasible", "enumerate_frontier"]

ENUMERATION_GUARD = 25


class OracleGuardError(RuntimeError):
    """Instance too large for exhaustive enumeration."""


def _check_guard(inst: Instance, force: bool) -> None:
    if len(inst.items) > ENUMERATION_GUARD and not force:
        raise OracleGuardError(
            f"n={len(inst.items)} exceeds the enumeration guard "
            f"({ENUMERATION_GUARD}); use the DP solver, or force=True if you mean it"
        )


def enumerate_feasible(inst: Instance, force: bool = False) -> Iterator[Subset]:
    """Yield every subset with total weight <= W, in ascending bitmask order.

    Bit j of the mask selects ``inst.items[j]``; each feasible subset is
    yielded exactly once.
    """
    validate_instance(inst)
    _check_guard(inst, force)
    yield frozenset()
    yield from (frozenset(lab.items) for lab in _feasible_labels(inst))


def enumerate_frontier(inst: Instance, force: bool = False) -> FrontierResult:
    """Non-dominated rank cardinality vectors by brute force.

    Every feasible subset is scored, equal vectors are collapsed to the
    minimal-weight (then id-lexicographic) witness, dominated vectors
    are removed by pairwise suffix-sum tests, and the all-zero vector of
    the empty selection is never reported.
    """
    validate_instance(inst)
    _check_guard(inst, force)
    t0 = time.perf_counter()
    frontier = pareto_filter(_feasible_labels(inst))
    stats = SolveStats(wall_time=time.perf_counter() - t0, backend="oracle")
    return FrontierResult(labels=tuple(frontier), stats=stats)


def _feasible_labels(inst: Instance) -> Iterator[Label]:
    """A label per nonempty feasible subset, in ascending bitmask order."""
    items = inst.items
    for mask in range(1, 1 << len(items)):
        weight = 0
        counts = [0] * inst.k
        ids = []
        m = mask
        while m:
            low = m & -m
            item = items[low.bit_length() - 1]
            weight += item.weight
            counts[item.level - 1] += 1
            ids.append(item.id)
            m ^= low
        if weight <= inst.capacity:
            yield Label(vector=tuple(counts), weight=weight, items=tuple(sorted(ids)))
