from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import instances
from qknap import (
    Instance,
    InvalidInstanceError,
    Item,
    enumerate_frontier,
    greedy_r,
    greedy_w,
    rank_cardinality_vector,
    solve,
    total_weight,
    validate_instance,
)


def test_validate_accepts_table1(table1):
    assert validate_instance(table1) is table1


def test_validate_rejects_zero_weight():
    with pytest.raises(InvalidInstanceError, match=r"item 1: weight must be >= 1"):
        Instance(k=2, capacity=5, items=(Item(1, 0, 1),))


def test_validate_rejects_level_out_of_range():
    with pytest.raises(InvalidInstanceError, match=r"item 3: level out of range"):
        Instance(k=4, capacity=5, items=(Item(3, 1, 5),))


def test_validate_rejects_duplicate_ids():
    with pytest.raises(InvalidInstanceError, match=r"item 7: duplicate id"):
        Instance(k=2, capacity=5, items=(Item(7, 1, 1), Item(7, 2, 2)))


def test_validate_rejects_bad_k_and_capacity():
    with pytest.raises(InvalidInstanceError, match="k must be >= 1"):
        Instance(k=0, capacity=1, items=())
    with pytest.raises(InvalidInstanceError, match="capacity must be >= 0"):
        Instance(k=1, capacity=-1, items=())


def test_validate_rejects_weights_and_capacity_beyond_int64():
    # tests/data/weight_wrap.qknap: 2**64 + 1 would wrap to 1 in the DP's int64 sums
    with pytest.raises(InvalidInstanceError, match=r"item 1: weight must be < 2\*\*63"):
        Instance(k=2, capacity=1000, items=(Item(1, 2**64 + 1, 2), Item(2, 3, 1)))
    with pytest.raises(InvalidInstanceError, match=r"item 1: weight must be < 2\*\*63"):
        Instance(k=1, capacity=1, items=(Item(1, 2**63, 1),))
    with pytest.raises(InvalidInstanceError, match=r"capacity must be < 2\*\*63"):
        Instance(k=1, capacity=2**63, items=())
    edge = Instance(k=1, capacity=2**63 - 1, items=(Item(1, 2**63 - 1, 1),))
    assert validate_instance(edge) is edge


def test_validate_rejects_nonpositive_id():
    with pytest.raises(InvalidInstanceError, match="id must be >= 1"):
        Instance(k=1, capacity=1, items=(Item(0, 1, 1),))


def test_replace_validates(table1):
    with pytest.raises(InvalidInstanceError, match="capacity must be >= 0, got -1"):
        replace(table1, capacity=-1)


# A valid instance with one field set to a small int, which may break a bound:
# k below 1 or below a level, capacity -1, an id below 1 or repeated, a weight
# or a level below 1. One field per case, so each gets every example.
@pytest.mark.parametrize("field", ["k", "capacity", "id", "weight", "level"])
@given(instances(min_n=1, max_n=6), st.integers(-1, 2), st.data())
def test_every_instance_that_exists_is_solvable(field, valid, value, data):
    fields = {"k": valid.k, "capacity": valid.capacity, "items": list(valid.items)}
    if field in fields:
        fields[field] = value
    else:
        pos = data.draw(st.integers(0, valid.n - 1))
        fields["items"][pos] = replace(fields["items"][pos], **{field: value})
    try:
        inst = Instance(**fields)
    except InvalidInstanceError:
        return
    assert solve(inst).labels == enumerate_frontier(inst).labels
    for greedy in (greedy_r, greedy_w):
        assert greedy(inst).weight <= inst.capacity


def test_rank_cardinality_examples(table1):
    assert rank_cardinality_vector({2, 4}, table1) == (0, 1, 0, 1)
    assert rank_cardinality_vector({1, 2, 3}, table1) == (1, 1, 1, 0)
    assert rank_cardinality_vector(frozenset(), table1) == (0, 0, 0, 0)


def test_rank_cardinality_unknown_id(table1):
    with pytest.raises(InvalidInstanceError, match="item 9: unknown id"):
        rank_cardinality_vector({9}, table1)


def test_total_weight_examples(table1):
    assert total_weight({2, 4}, table1) == 6
    assert total_weight(frozenset(), table1) == 0
    assert total_weight({1, 2, 3}, table1) == 6


def test_total_weight_unknown_id(table1):
    with pytest.raises(InvalidInstanceError, match="unknown id"):
        total_weight({5}, table1)


def test_items_coerced_to_tuple():
    inst = Instance(k=1, capacity=1, items=[Item(1, 1, 1)])
    assert isinstance(inst.items, tuple)


@given(instances())
def test_counts_sum_to_subset_size(inst):
    ids = [it.id for it in inst.items]
    subset = frozenset(ids[::2])
    assert sum(rank_cardinality_vector(subset, inst)) == len(subset)


@given(instances(min_n=2), st.data())
def test_additivity_over_disjoint_unions(inst, data):
    ids = [it.id for it in inst.items]
    cut = data.draw(st.integers(0, len(ids)))
    a, b = frozenset(ids[:cut]), frozenset(ids[cut:])
    ga = rank_cardinality_vector(a, inst)
    gb = rank_cardinality_vector(b, inst)
    gab = rank_cardinality_vector(a | b, inst)
    assert gab == tuple(x + y for x, y in zip(ga, gb))
    assert total_weight(a | b, inst) == total_weight(a, inst) + total_weight(b, inst)
