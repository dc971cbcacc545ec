import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import improve, random_valuation, random_vector, vectors
from qknap import (
    Label,
    Valuation,
    dominates,
    equivalent,
    evaluate,
    falsification_witness,
    pareto_filter,
    suffix_sums,
    weakly_dominates,
)


def test_suffix_sums_examples():
    assert suffix_sums((1, 1, 1, 0)) == (3, 2, 1, 0)
    assert suffix_sums((0, 0, 0, 0)) == (0, 0, 0, 0)
    assert suffix_sums((0, 1, 0, 1)) == (2, 2, 1, 1)


def test_weak_dominance_examples():
    assert weakly_dominates((0, 1), (1, 0))
    assert weakly_dominates((1, 1, 1, 0), (1, 1, 1, 0))
    assert not weakly_dominates((1, 1, 1, 0), (0, 1, 0, 1))
    assert not weakly_dominates((0, 1, 0, 1), (1, 1, 1, 0))


def test_dominance_examples():
    assert dominates((0, 1), (1, 0))
    assert not dominates((1, 0), (0, 1))
    assert not dominates((0, 1, 0, 1), (0, 1, 0, 1))
    assert not dominates((1, 1, 1, 0), (0, 1, 0, 1))


def test_mismatched_k_raises():
    for fn in (weakly_dominates, dominates, equivalent):
        with pytest.raises(ValueError, match="mismatched level counts"):
            fn((1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="mismatched level counts"):
        evaluate(Valuation((1, 2)), (1, 0, 0))


def test_equivalent_examples():
    assert equivalent((0, 1, 0, 1), (0, 1, 0, 1))
    assert not equivalent((1, 0), (0, 1))
    assert not equivalent((1, 1, 1, 0), (0, 1, 0, 1))


def test_evaluate_examples():
    v = Valuation((1, 2, 3, 68))
    assert evaluate(v, (0, 1, 0, 1)) == 70
    assert evaluate(v, (0, 0, 0, 0)) == 0
    assert evaluate(v, (1, 1, 1, 0)) == 6
    assert isinstance(evaluate(v, (1, 0, 0, 0)), Fraction)


def test_valuation_validation():
    with pytest.raises(ValueError, match="positive"):
        Valuation((0, 1))
    with pytest.raises(ValueError, match="strictly increase"):
        Valuation((1, 1))
    with pytest.raises(ValueError, match="strictly increase"):
        Valuation((2, 1))
    with pytest.raises(ValueError, match="at least one level"):
        Valuation(())
    exact = Valuation((Fraction(1, 3), Fraction(2, 3)))
    assert exact.values == (Fraction(1, 3), Fraction(2, 3))
    # a valuation is the tuple of its values
    v = Valuation((1, 2))
    assert v == (Fraction(1), Fraction(2)) and len(v) == v.k == 2
    for clone in (pickle.loads(pickle.dumps(exact)), copy.copy(exact), copy.deepcopy(exact)):
        assert type(clone) is Valuation and clone == exact
    assert exact.k == 2


def test_witness_example_from_incomparable_pair():
    w = falsification_witness((1, 1, 1, 0), (0, 1, 0, 1), n=4)
    assert w == Valuation((1, 2, 3, 68))  # j* = 4, M = 4*4*4
    assert evaluate(w, (0, 1, 0, 1)) == 70
    assert evaluate(w, (1, 1, 1, 0)) == 6


def test_witness_none_when_weakly_dominating():
    assert falsification_witness((0, 1), (0, 1), n=2) is None
    assert falsification_witness((0, 1), (1, 0), n=2) is None


def test_witness_rejects_too_small_n():
    with pytest.raises(ValueError, match="smaller than"):
        falsification_witness((3, 0), (0, 1), n=1)


def _labels(*vecs, weight=1):
    return [Label(vector=v, weight=weight, items=()) for v in vecs]


def test_pareto_filter_examples():
    kept = pareto_filter(_labels((1, 0), (0, 1), (1, 1)))
    assert [lab.vector for lab in kept] == [(1, 1)]
    assert pareto_filter([]) == []
    kept = pareto_filter(_labels((1, 1, 1, 0), (0, 1, 0, 1)))
    assert [lab.vector for lab in kept] == [(0, 1, 0, 1), (1, 1, 1, 0)]


def test_pareto_filter_dedup_rule():
    a = Label(vector=(1, 0), weight=3, items=(2,))
    b = Label(vector=(1, 0), weight=2, items=(9,))
    c = Label(vector=(1, 0), weight=2, items=(4,))
    assert pareto_filter([a, b, c]) == [c]  # min weight, then smallest id tuple


def test_pareto_filter_mixed_k_raises():
    with pytest.raises(ValueError, match="mismatched level counts"):
        pareto_filter(_labels((1, 0), (1, 0, 0)))


def test_pareto_filter_canonical_order():
    kept = pareto_filter(_labels((2, 0), (0, 1)))
    assert [lab.vector for lab in kept] == [(0, 1), (2, 0)]


@given(st.lists(vectors(k=3, max_count=4), max_size=12))
def test_pareto_filter_idempotent_and_sound(vecs):
    labels = [Label(vector=v, weight=sum(v), items=(i,)) for i, v in enumerate(vecs)]
    kept = pareto_filter(labels)
    assert pareto_filter(kept) == kept
    for lab in kept:
        assert not any(
            dominates(other.vector, lab.vector) for other in kept if other is not lab
        )
    for lab in labels:  # everything removed is covered by something kept
        assert any(weakly_dominates(other.vector, lab.vector) for other in kept)


@given(vectors())
def test_weak_dominance_reflexive(g):
    assert weakly_dominates(g, g)


@given(st.data())
def test_suffix_sums_determine_vector(data):
    k = data.draw(st.integers(1, 5))
    g1 = data.draw(vectors(k=k))
    g2 = data.draw(vectors(k=k))
    assert (suffix_sums(g1) == suffix_sums(g2)) == (g1 == g2) == equivalent(g1, g2)


@given(st.data())
def test_weak_dominance_transitive(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    k = rng.randint(1, 5)
    c = random_vector(rng, k)
    b = improve(rng, c)
    a = improve(rng, b)
    assert weakly_dominates(a, b) and weakly_dominates(b, c)
    assert weakly_dominates(a, c)


@given(st.data())
def test_dominance_agrees_with_all_valuations(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    k = rng.randint(1, 5)
    g2 = random_vector(rng, k)
    g1 = improve(rng, g2) if rng.random() < 0.5 else random_vector(rng, k)
    n = max(sum(g1), sum(g2), 1)
    if weakly_dominates(g1, g2):
        for _ in range(20):
            v = random_valuation(rng, k)
            assert evaluate(v, g1) >= evaluate(v, g2)
        assert falsification_witness(g1, g2, n) is None
    else:
        w = falsification_witness(g1, g2, n)
        assert w is not None
        assert evaluate(w, g2) > evaluate(w, g1)
