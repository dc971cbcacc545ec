"""Core data model for the 0/1 knapsack with ordinal item levels.

Items carry a positive integer weight and a qualitative level index in
1..k, where level 1 is the worst grade and level k the best. A selection
of items is summarized by its rank cardinality vector: the per-level
count of selected items. All comparisons between selections go through
those count vectors, never through numeric profits. The solvers report
their results as the frontier types defined here.

No record here is built by ``dataclasses``, which a process would
otherwise import (with ``inspect``, ``ast`` and ``dis``) on every
request. ``Item``, ``Instance``, ``Label``, ``SolveStats`` and
``FrontierResult`` are named tuples with empty ``__slots__``: each
holds its fields and nothing beside them, refuses to set or delete any
attribute, and pickles and copies as its fields alone.
``SolveStats``'s fields are the ``# stats`` fields in order.
``Instance`` validates however it is built, and reads ``by_id`` and
``n`` off its items each time. It alone keeps the dataclass protocol,
``dataclasses.replace`` included, through ``__dataclass_fields__``,
built on first read; ``_replace`` copies any of these records with new
fields.
"""

from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat

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


class Instance(namedtuple("Instance", "k capacity items")):
    """A problem instance: k levels, capacity, and items in input order.

    Valid once it exists: construction runs :func:`validate_instance`
    and raises :class:`InvalidInstanceError` on any broken invariant, so
    solvers take an instance as it comes. Every other way to build one,
    ``dataclasses.replace``, ``_replace``, ``_make``, ``copy``,
    ``pickle`` and ``copy.replace``, goes through that constructor, and
    none carries anything but the three fields.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()
    # _replace and copy.replace build through _make, which would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, k: int, capacity: int, items: Iterable[Item]) -> "Instance":
        # the module-level name, which perfbench's tracer wraps
        return validate_instance(tuple.__new__(cls, (k, capacity, tuple(items))))

    @property
    def by_id(self) -> dict[int, Item]:
        """Each item by its id, built from ``items`` on every read."""
        return {item.id: item for item in self.items}

    @property
    def n(self) -> int:
        return len(self.items)


class Label(namedtuple("Label", "vector weight items")):
    """A frontier entry: count vector, total weight, and one witness subset.

    ``items`` is the ascending tuple of item ids of the witness. Several
    subsets may share a vector; solvers report the one with minimal
    weight, ties broken by lexicographically smallest id tuple: for each
    level j, its c_j lightest items, ties by id.
    """

    __slots__ = ()


class SolveStats(
    namedtuple(
        "SolveStats", "cells max_cell comparisons wall_time backend", defaults=(0, 0, 0, 0.0, "")
    )
):
    """Counters from one solver run.

    ``backend`` names what ran: ``"c-kernel"`` or ``"python"`` for the
    two implementations of the DP row kernel, ``"oracle"`` for
    brute-force enumeration, which counts no comparisons. Given the same
    input and backend, only wall_time varies between runs; both kernels
    give the same counters, and the item ids, which only name the items,
    change none of them. ``wall_time`` times the solve alone: its
    clock starts once the DP's row kernel is loaded, or built and
    cached, so neither the load nor the build is in it. Each row is one
    list of labels, and ``comparisons`` counts the candidate x frontier
    pairs its merge takes up: each label of row i-1 and each extension
    of one by item i, in order of weight, against the kept labels that
    no kept label covers, until one of them covers it. ``max_cell`` is
    the size of the largest cell. Without ``--matrix`` the sweep goes
    heaviest item first and counts a label lighter than W less the
    weight still to come as weighing that much (see ``qknap.dp``):
    ``comparisons`` and ``max_cell`` count the merges of those rows and
    the cells they hold, while ``cells`` stays n * (W + 1), the size of
    the whole table with W clamped to the total weight. Each field, in
    this order, is printed after the label count as one ``# name=value``
    stats line and one ``--json`` stats key (see ``qknap.instance_io``).
    """

    __slots__ = ()


class FrontierResult(namedtuple("FrontierResult", "labels stats matrix", defaults=(None,))):
    """Non-dominated labels in canonical order, plus run counters.

    ``matrix``, kept on request, holds every DP cell: ``matrix[i][x]``
    for i in 0..n and x in 0..W.
    """

    __slots__ = ()


def _integers(where: str, names: Iterable[str], values: Iterable) -> None:
    """Raise :class:`InvalidInstanceError` naming the first value that is not an ``int``."""
    for name, value in zip(names, values):
        if type(value) is not int:  # a bool is an int, which the file format cannot hold
            raise InvalidInstanceError(f"{where}{name} must be an integer, got {value!r}")


def validate_instance(raw: Instance) -> Instance:
    """Check all structural invariants, returning the instance unchanged.

    ``Instance`` runs this on construction, so an existing instance has
    passed it. Raises :class:`InvalidInstanceError` with a diagnostic
    naming the offending field and item id, or the position of an item
    that is not an :class:`Item`, whose fields solvers read by name.
    Every field is an ``int``, as in the file format: the DP's kernels
    take no other number, and a ``bool``, which ``serialize_instance``
    would write as ``True``, is refused too.
    """
    _integers("", ("k", "capacity"), raw)
    if raw.k < 1:
        raise InvalidInstanceError(f"k must be >= 1, got {raw.k}")
    if raw.capacity < 0:
        raise InvalidInstanceError(f"capacity must be >= 0, got {raw.capacity}")
    if raw.capacity >= _INT64_LIMIT:
        raise InvalidInstanceError(f"capacity must be < 2**63, got {raw.capacity}")
    if not all(map(isinstance, raw.items, repeat(Item))):
        i = next(i for i, item in enumerate(raw.items) if not isinstance(item, Item))
        raise InvalidInstanceError(f"items[{i}] is not an Item: {raw.items[i]!r}")
    seen: set[int] = set()
    for ident, weight, level in raw.items:  # unpacked: a namedtuple field read is a call
        if not (type(ident) is type(weight) is type(level) is int):
            _integers(f"item {ident!r}: ", Item._fields, (ident, weight, level))
        if ident < 1:
            raise InvalidInstanceError(f"item {ident}: id must be >= 1")
        if ident in seen:
            raise InvalidInstanceError(f"item {ident}: duplicate id")
        seen.add(ident)
        if weight < 1:
            raise InvalidInstanceError(f"item {ident}: weight must be >= 1")
        if weight >= _INT64_LIMIT:
            raise InvalidInstanceError(f"item {ident}: weight must be < 2**63, got {weight}")
        if not 1 <= level <= raw.k:
            raise InvalidInstanceError(
                f"item {ident}: level out of range (level {level}, k={raw.k})"
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
