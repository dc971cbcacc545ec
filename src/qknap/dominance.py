"""Dominance preorder on rank cardinality vectors.

A selection S1 weakly dominates S2 exactly when, for every level j, S1
contains at least as many items of level j or better as S2 does. That
suffix-sum test is equivalent to v(S1) >= v(S2) holding for *every*
strictly increasing positive valuation of the levels, which is what
makes it the right order for ordinal profits. When the test fails, an
explicit valuation witnessing the failure can be constructed.

All valuation arithmetic is exact (``fractions.Fraction``); no floats.
A :class:`Valuation` is the tuple of its values, checked when built:
``len(v)`` is its level count k.
"""

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate

from .model import Label, RankVector, canonical_key

__all__ = [
    "Valuation",
    "dominates",
    "equivalent",
    "evaluate",
    "falsification_witness",
    "pareto_filter",
    "suffix_sums",
    "weakly_dominates",
]


def _check_k(g1: Sequence[int], g2: Sequence[int]) -> None:
    if len(g1) != len(g2):
        raise ValueError(f"mismatched level counts: {len(g1)} != {len(g2)}")


def suffix_sums(g: RankVector) -> tuple[int, ...]:
    """sums[j] = number of items counted at level j+1 or better."""
    return tuple(accumulate(reversed(g)))[::-1]


def weakly_dominates(g1: RankVector, g2: RankVector) -> bool:
    """True iff every suffix sum of g1 is >= the matching suffix sum of g2."""
    _check_k(g1, g2)
    a1 = a2 = 0
    for j in range(len(g1) - 1, -1, -1):
        a1 += g1[j]
        a2 += g2[j]
        if a1 < a2:
            return False
    return True


def dominates(g1: RankVector, g2: RankVector) -> bool:
    """Weak dominance in one direction only (strict somewhere)."""
    return weakly_dominates(g1, g2) and not weakly_dominates(g2, g1)


def equivalent(g1: RankVector, g2: RankVector) -> bool:
    """True iff all valuations give g1 and g2 the same total value.

    Strictly increasing valuations separate any two distinct vectors, so
    equivalence collapses to componentwise equality.
    """
    _check_k(g1, g2)
    return tuple(g1) == tuple(g2)


class Valuation(tuple):
    """Strictly increasing positive rational values, one per level.

    The tuple of its ``Fraction`` values, checked on construction: it
    equals the plain tuple of them, and its ``len`` is the level count.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int | Fraction]) -> "Valuation":
        vals = super().__new__(cls, map(Fraction, values))
        if not vals:
            raise ValueError("valuation needs at least one level")
        if vals[0] <= 0:
            raise ValueError(f"valuation values must be positive, got {vals[0]}")
        for lo, hi in zip(vals, vals[1:]):
            if hi <= lo:
                raise ValueError(f"valuation values must strictly increase: {lo} !< {hi}")
        return vals


def evaluate(v: Valuation, g: RankVector) -> Fraction:
    """Total value of a selection under ``v``: the dot product v . g."""
    _check_k(v, g)
    return sum((val * c for val, c in zip(v, g)), Fraction(0))


def falsification_witness(g1: RankVector, g2: RankVector, n: int) -> Valuation | None:
    """Valuation proving that g1 does not weakly dominate g2, if any.

    Returns ``None`` when g1 weakly dominates g2. Otherwise takes the
    smallest level j* whose suffix sum is deficient and builds the
    valuation v(level i) = i + M for i >= j*, else i, with M = 4*n*k.
    ``n`` must be at least the number of items counted in either vector;
    the returned valuation is checked to satisfy v.g2 > v.g1.
    """
    _check_k(g1, g2)
    k = len(g1)
    if n < max(sum(g1), sum(g2)):
        raise ValueError(f"n={n} smaller than a vector's item count")
    s1 = suffix_sums(g1)
    s2 = suffix_sums(g2)
    j_star = next((j for j in range(k) if s1[j] < s2[j]), None)
    if j_star is None:
        return None
    m = 4 * n * k
    witness = Valuation(
        (i + 1 + m) if i >= j_star else (i + 1) for i in range(k)
    )
    assert evaluate(witness, g2) > evaluate(witness, g1)
    return witness


def pareto_filter(labels: Iterable[Label]) -> list[Label]:
    """Reduce labels to the non-dominated ones, one per distinct vector.

    Among labels with equal vectors the minimal-weight one survives,
    ties broken by lexicographically smallest id tuple. Of those, each
    label that no other one ``weakly_dominates`` is kept, in canonical
    frontier order. Reference implementation by pairwise tests;
    quadratic and meant for modest inputs.
    """
    best: dict[RankVector, Label] = {}
    for lab in labels:
        cur = best.get(lab.vector)
        if cur is None or (lab.weight, lab.items) < (cur.weight, cur.items):
            best[lab.vector] = lab
    kept = [
        lab
        for lab in best.values()
        if not any(o is not lab and weakly_dominates(o.vector, lab.vector) for o in best.values())
    ]
    kept.sort(key=canonical_key)
    return kept
