"""Core data model for the 0/1 knapsack with ordinal item levels.

Items carry a positive integer weight and a qualitative level index in
1..k, where level 1 is the worst grade and level k the best. A selection
of items is summarized by its rank cardinality vector: the per-level
count of selected items. All comparisons between selections go through
those count vectors, never through numeric profits. The solvers report
their results as the frontier types defined here.

No record here is built by ``dataclasses``, which a process would
otherwise import (with ``inspect``, ``ast`` and ``dis``) on every
request. ``Item``, ``Label`` and ``FrontierResult`` are named tuples;
``SolveStats`` is a mutable ``__slots__`` class whose slots are the
``# stats`` fields in order; ``Instance`` is a ``__slots__`` class that
validates on construction and refuses assignment. ``Instance`` and
``Item`` keep the dataclass protocol, ``dataclasses.replace``
included, through ``__dataclass_fields__``, built on first read.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

TYPE_CHECKING = False
if TYPE_CHECKING:  # named in annotations only, which are never evaluated
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


class _DataclassFields:
    """``__dataclass_fields__`` of a class with ``_fields``, built on first read.

    It keeps ``dataclasses.replace``, ``fields`` and ``is_dataclass``
    working on the class while a process that never calls them never
    imports ``dataclasses``. The first read caches the fields on the
    class in the descriptor's place.
    """

    def __get__(self, obj: object, owner: type) -> dict:
        import dataclasses

        owner.__dataclass_fields__ = dataclasses.make_dataclass(
            owner.__name__, owner._fields
        ).__dataclass_fields__
        return owner.__dataclass_fields__


class Item(namedtuple("Item", "id weight level")):
    """One knapsack item: unique id, positive weight, level in 1..k."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


class Instance:
    """A problem instance: k levels, capacity, and items in input order.

    Valid once it exists: construction, ``dataclasses.replace`` included,
    runs :func:`validate_instance` and raises
    :class:`InvalidInstanceError` on any broken invariant, so solvers
    take an instance as it comes. Its fields cannot be assigned.
    """

    __slots__ = ("k", "capacity", "items", "__dict__")  # __dict__ holds the cached by_id
    _fields = ("k", "capacity", "items")
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, k: int, capacity: int, items: Iterable[Item]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "items", items if isinstance(items, tuple) else tuple(items))
        validate_instance(self)  # the module-level name, which perfbench's tracer wraps

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def _astuple(self) -> tuple:
        return self.k, self.capacity, self.items

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"Instance(k={self.k!r}, capacity={self.capacity!r}, items={self.items!r})"

    def __reduce__(self) -> tuple:
        return Instance, self._astuple()

    @cached_property
    def by_id(self) -> dict[int, Item]:
        return {item.id: item for item in self.items}

    @property
    def n(self) -> int:
        return len(self.items)


class Label(namedtuple("Label", "vector weight items")):
    """A frontier entry: count vector, total weight, and one witness subset.

    ``items`` is the ascending tuple of item ids of the witness. Several
    subsets may share a vector; solvers report the one with minimal
    weight, ties broken by lexicographically smallest id tuple.
    """

    __slots__ = ()


class SolveStats:
    """Counters from one solver run.

    ``backend`` names what ran: ``"c-kernel"`` or ``"python"`` for the
    two implementations of the DP row kernel, ``"oracle"`` for
    brute-force enumeration, which counts no comparisons. Given the same
    input and backend, only wall_time varies between runs; both kernels
    give the same counters. Each row is one list of labels, and
    ``comparisons`` counts the candidate x frontier pairs its merge
    takes up: each label of row i-1 and each extension of one by item i,
    in order of weight, against the kept labels that no kept label
    covers, until one of them covers it. ``max_cell`` is the size of
    the largest cell. Without ``--matrix`` the sweep goes heaviest item
    first and counts a label lighter than W less the weight still to
    come as weighing that much (see ``qknap.dp``): ``comparisons`` and
    ``max_cell`` count the merges of those rows and the cells they
    hold, while ``cells`` stays n * (W + 1), the size of the whole
    table with W clamped to the total weight. Each field, in this
    order, is printed after the label count as one ``# name=value``
    stats line and one ``--json`` stats key (see ``qknap.instance_io``).
    """

    __slots__ = ("cells", "max_cell", "comparisons", "wall_time", "backend")

    def __init__(
        self,
        cells: int = 0,
        max_cell: int = 0,
        comparisons: int = 0,
        wall_time: float = 0.0,
        backend: str = "",
    ) -> None:
        self.cells = cells
        self.max_cell = max_cell
        self.comparisons = comparisons
        self.wall_time = wall_time
        self.backend = backend


class FrontierResult(namedtuple("FrontierResult", "labels stats matrix", defaults=(None,))):
    """Non-dominated labels in canonical order, plus run counters.

    ``matrix``, kept on request, holds every DP cell: ``matrix[i][x]``
    for i in 0..n and x in 0..W.
    """

    __slots__ = ()


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
