"""Greedy heuristics: fill the knapsack along a lexicographic item order.

Two orders are supported. The level-major order (best level first,
lighter first within a level) always yields an efficient solution. The
weight-major order (lighter first, better level within a weight) yields
one of maximum cardinality, and it is guaranteed efficient only when it
fills the capacity exactly.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .model import Instance, rank_cardinality_vector

__all__ = ["Guarantee", "GreedyResult", "greedy_r", "greedy_w", "r_lex_order", "w_lex_order"]


class Guarantee(enum.Enum):
    """Efficiency guarantee attached to a greedy solution."""

    EFFICIENT = "Efficient"
    EFFICIENT_BECAUSE_FULL = "EfficientBecauseFull"
    NO_GUARANTEE = "NoGuarantee"


class GreedyResult(namedtuple("GreedyResult", "subset vector weight guarantee")):
    """The chosen ids, their rank cardinality vector, total weight and guarantee."""

    __slots__ = ()


def r_lex_order(inst: Instance) -> tuple[int, ...]:
    """Item positions sorted by level desc, then weight asc, then id asc."""
    return _order(inst, lambda item: (-item.level, item.weight, item.id))


def w_lex_order(inst: Instance) -> tuple[int, ...]:
    """Item positions sorted by weight asc, then level desc, then id asc."""
    return _order(inst, lambda item: (item.weight, -item.level, item.id))


def _order(inst: Instance, key) -> tuple[int, ...]:
    items = inst.items
    return tuple(sorted(range(len(items)), key=lambda p: key(items[p])))


def greedy_r(inst: Instance) -> GreedyResult:
    """Greedy fill in level-major order; the result is always efficient."""
    return _greedy(inst, r_lex_order, Guarantee.EFFICIENT, Guarantee.EFFICIENT)


def greedy_w(inst: Instance) -> GreedyResult:
    """Greedy fill in weight-major order; efficient when it fills W exactly."""
    return _greedy(inst, w_lex_order, Guarantee.EFFICIENT_BECAUSE_FULL, Guarantee.NO_GUARANTEE)


def _greedy(inst: Instance, order, if_full: Guarantee, otherwise: Guarantee) -> GreedyResult:
    """Take the items of ``order(inst)`` in turn, each one that still fits."""
    remaining = inst.capacity
    chosen = []
    for pos in order(inst):
        item = inst.items[pos]
        if item.weight <= remaining:
            chosen.append(item.id)
            remaining -= item.weight
    subset = frozenset(chosen)
    return GreedyResult(
        subset=subset,
        vector=rank_cardinality_vector(subset, inst),
        weight=inst.capacity - remaining,
        guarantee=if_full if remaining == 0 else otherwise,
    )
