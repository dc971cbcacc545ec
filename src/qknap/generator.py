"""Deterministic instance generation, and the canonical text of an instance.

Random instances come from a splitmix64 stream, so that the same
parameters give byte-identical files everywhere. ``serialize_instance``
writes an instance in the format ``qknap.instance_io`` reads. Only
``qknap gen``, ``qknap bench``, the tests and the benchmark generate
instances, so a served request never compiles this module.
"""

from math import ceil

from .model import Instance, Item

TYPE_CHECKING = False
if TYPE_CHECKING:  # named in quoted annotations only, which are never evaluated
    from fractions import Fraction

__all__ = ["GeneratorParams", "SplitMix64", "generate_instance", "serialize_instance"]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator; all arithmetic modulo 2**64."""

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, m: int) -> int:
        """Uniform integer in 1..m by rejection below the top multiple of m."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % m + 1


class GeneratorParams:
    """Parameters for deterministic instance generation.

    Exactly one of ``capacity`` (fixed W) or ``ratio`` (W = ceil of
    ratio times the total weight) must be given. Construction checks
    them and raises ValueError on any that is out of range; a fixed W is
    checked as an :class:`Instance` checks its capacity, so ``qknap
    bench`` can refuse it before it draws any instance.
    """

    def __init__(
        self,
        n: int,
        k: int,
        weight_max: int,
        seed: int,
        capacity: int | None = None,
        ratio: "Fraction | None" = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weight_max < 1:
            raise ValueError(f"weight_max must be >= 1, got {weight_max}")
        if (capacity is None) == (ratio is None):
            raise ValueError("exactly one of capacity or ratio must be set")
        if ratio is not None and not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if capacity is not None:
            Instance(k=k, capacity=capacity, items=())
        self.n, self.k, self.weight_max, self.seed = n, k, weight_max, seed
        self.capacity, self.ratio = capacity, ratio


def generate_instance(p: GeneratorParams) -> Instance:
    """Instance determined by the params: ids 1..n, weights then levels drawn."""
    rng = SplitMix64(p.seed)
    weights = [rng.uniform(p.weight_max) for _ in range(p.n)]
    levels = [rng.uniform(p.k) for _ in range(p.n)]
    cap = p.capacity if p.capacity is not None else ceil(p.ratio * sum(weights))
    items = tuple(
        Item(id=i + 1, weight=weights[i], level=levels[i]) for i in range(p.n)
    )
    return Instance(k=p.k, capacity=cap, items=items)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: no comments, items in input order, trailing newline."""
    lines = [
        "qknap 1",
        f"levels {inst.k}",
        f"capacity {inst.capacity}",
        f"items {len(inst.items)}",
    ]
    lines.extend(f"{it.id} {it.weight} {it.level}" for it in inst.items)
    return "\n".join(lines) + "\n"
