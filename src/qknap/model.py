"""Core data model for the 0/1 knapsack with ordinal item levels.

Items carry a positive integer weight and a qualitative level index in
1..k, where level 1 is the worst grade and level k the best. A selection
of items is summarized by its rank cardinality vector: the per-level
count of selected items. All comparisons between selections go through
those count vectors, never through numeric profits. The solvers report
their results as the frontier types defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = [
    "FrontierResult",
    "InvalidInstanceError",
    "Item",
    "Instance",
    "Label",
    "RankVector",
    "SolveStats",
    "Subset",
    "canonical_key",
    "rank_cardinality_vector",
    "total_weight",
    "validate_instance",
]

# A rank cardinality vector: counts[i] = number of selected items at level i+1.
RankVector = tuple[int, ...]

# A subset of an instance, identified by item ids.
Subset = frozenset[int]

# The DP adds weights in int64, so weights and capacity stay below this.
_INT64_LIMIT = 2**63


class InvalidInstanceError(ValueError):
    """Raised when an instance, subset, or item violates an invariant."""


@dataclass(frozen=True)
class Item:
    """One knapsack item: unique id, positive weight, level in 1..k."""

    id: int
    weight: int
    level: int


@dataclass(frozen=True)
class Instance:
    """A problem instance: k levels, capacity, and items in input order.

    Valid once it exists: construction, ``dataclasses.replace`` included,
    runs :func:`validate_instance` and raises
    :class:`InvalidInstanceError` on any broken invariant, so solvers
    take an instance as it comes.
    """

    k: int
    capacity: int
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        validate_instance(self)  # the module-level name, which perfbench's tracer wraps

    @cached_property
    def by_id(self) -> dict[int, Item]:
        return {item.id: item for item in self.items}

    @property
    def n(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Label:
    """A frontier entry: count vector, total weight, and one witness subset.

    ``items`` is the ascending tuple of item ids of the witness. Several
    subsets may share a vector; solvers report the one with minimal
    weight, ties broken by lexicographically smallest id tuple.
    """

    vector: RankVector
    weight: int
    items: tuple[int, ...]


@dataclass
class SolveStats:
    """Counters from one solver run.

    ``backend`` names what ran: ``"c-kernel"`` or ``"python"`` for the
    two implementations of the DP row kernel, ``"oracle"`` for
    brute-force enumeration, which counts no comparisons. Given the same
    input and backend, only wall_time varies between runs; both kernels
    give the same counters. ``comparisons`` counts the A x B record pairs
    each column's merge takes up: every label of cell (i-1, x) against
    every extension of cell (i-1, x - w_i). That bounds the dominance
    tests run from above, since a label's scan ends at the first
    extension that covers it. Each field, in this order, is printed
    after the label count as one ``# name=value`` stats line and one
    ``--json`` stats key (see ``qknap.instance_io``).
    """

    cells: int = 0
    max_cell: int = 0
    comparisons: int = 0
    wall_time: float = 0.0
    backend: str = ""


@dataclass(frozen=True)
class FrontierResult:
    """Non-dominated labels in canonical order, plus run counters.

    ``matrix``, kept on request, holds every DP cell: ``matrix[i][x]``
    for i in 0..n and x in 0..W.
    """

    labels: tuple[Label, ...]
    stats: SolveStats
    matrix: tuple[tuple[tuple[Label, ...], ...], ...] | None = None


def validate_instance(raw: Instance) -> Instance:
    """Check all structural invariants, returning the instance unchanged.

    ``Instance`` runs this on construction, so an existing instance has
    passed it. Raises :class:`InvalidInstanceError` with a diagnostic
    naming the offending field and item id.
    """
    if raw.k < 1:
        raise InvalidInstanceError(f"k must be >= 1, got {raw.k}")
    if raw.capacity < 0:
        raise InvalidInstanceError(f"capacity must be >= 0, got {raw.capacity}")
    if raw.capacity >= _INT64_LIMIT:
        raise InvalidInstanceError(f"capacity must be < 2**63, got {raw.capacity}")
    seen: set[int] = set()
    for item in raw.items:
        if item.id < 1:
            raise InvalidInstanceError(f"item {item.id}: id must be >= 1")
        if item.id in seen:
            raise InvalidInstanceError(f"item {item.id}: duplicate id")
        seen.add(item.id)
        if item.weight < 1:
            raise InvalidInstanceError(f"item {item.id}: weight must be >= 1")
        if item.weight >= _INT64_LIMIT:
            raise InvalidInstanceError(f"item {item.id}: weight must be < 2**63, got {item.weight}")
        if not 1 <= item.level <= raw.k:
            raise InvalidInstanceError(
                f"item {item.id}: level out of range (level {item.level}, k={raw.k})"
            )
    return raw


def _members(subset: Iterable[int], inst: Instance) -> list[Item]:
    by_id = inst.by_id
    out = []
    for item_id in subset:
        item = by_id.get(item_id)
        if item is None:
            raise InvalidInstanceError(f"item {item_id}: unknown id")
        out.append(item)
    return out


def rank_cardinality_vector(subset: Iterable[int], inst: Instance) -> RankVector:
    """Count the subset's items per level: counts[i] = |{s : level(s) = i+1}|."""
    counts = [0] * inst.k
    for item in _members(subset, inst):
        counts[item.level - 1] += 1
    return tuple(counts)


def total_weight(subset: Iterable[int], inst: Instance) -> int:
    """Sum of member weights; 0 for the empty subset."""
    return sum(item.weight for item in _members(subset, inst))


def canonical_key(label: Label) -> tuple:
    """Sort key for the canonical frontier order.

    Best levels first: compare counts at level k, then k-1, ... down to
    level 1, all descending; break ties by ascending weight, then by the
    ascending id tuple of the witness subset.
    """
    return tuple(-c for c in reversed(label.vector)), label.weight, label.items
