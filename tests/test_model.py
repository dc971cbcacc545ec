import copy
import pickle
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import compiler_found, instances
from qknap import (
    GeneratorParams,
    Instance,
    InvalidInstanceError,
    Item,
    Valuation,
    enumerate_frontier,
    generate_instance,
    greedy_r,
    greedy_w,
    rank_cardinality_vector,
    read_instance,
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


@pytest.mark.parametrize(
    "items, message",
    [
        ([(1, 2, 1), (2, 3, 2)], "items[0] is not an Item: (1, 2, 1)"),  # solvers read fields by name
        ([5], "items[0] is not an Item: 5"),  # not a record at all
        ([Item(1, 2, 1), (2, 3, 2)], "items[1] is not an Item: (2, 3, 2)"),
    ],
)
def test_validate_rejects_items_that_are_not_items(items, message):
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        Instance(2, 5, items)


def test_validate_rejects_nonpositive_id():
    with pytest.raises(InvalidInstanceError, match="id must be >= 1"):
        Instance(k=1, capacity=1, items=(Item(0, 1, 1),))


# A field that is not an int, which the file format cannot hold: a float
# capacity fails inside the C sweep's argument parsing, and the Python twin solves
# a capacity of 5.5 as given. 40 items of weight up to 9 make 2,440 cells,
# enough for the C kernel; 4 items run the Python twin.
@pytest.mark.parametrize(
    "n, field, value, message",
    [
        (40, "capacity", 60.0, "capacity must be an integer, got 60.0"),
        (4, "capacity", 5.5, "capacity must be an integer, got 5.5"),
        (4, "k", 3.0, "k must be an integer, got 3.0"),
        (4, "id", 1.0, "item 1.0: id must be an integer, got 1.0"),
        (40, "weight", 2.0, "item 1: weight must be an integer, got 2.0"),
        (4, "weight", 2.0, "item 1: weight must be an integer, got 2.0"),
        (4, "level", "1", "item 1: level must be an integer, got '1'"),
        # a bool is an int, and serialize_instance would write it as True
        (4, "k", True, "k must be an integer, got True"),
        (4, "capacity", True, "capacity must be an integer, got True"),
        (4, "id", True, "item True: id must be an integer, got True"),
        (4, "weight", True, "item 1: weight must be an integer, got True"),
        (4, "level", True, "item 1: level must be an integer, got True"),
    ],
)
def test_validate_rejects_fields_that_are_not_integers(n, field, value, message):
    valid = generate_instance(GeneratorParams(n=n, k=3, weight_max=9, seed=1, capacity=60))
    backend = "c-kernel" if n == 40 and compiler_found() else "python"
    assert solve(valid).stats.backend == backend
    fields = {"k": valid.k, "capacity": valid.capacity, "items": list(valid.items)}
    if field in fields:
        fields[field] = value
    else:
        fields["items"][0] = fields["items"][0]._replace(**{field: value})
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        Instance(**fields)


def test_replace_validates(table1):
    with pytest.raises(InvalidInstanceError, match="capacity must be >= 0, got -1"):
        replace(table1, capacity=-1)
    # every other way to build an Instance goes through its constructor too
    broken = tuple.__new__(Instance, (1, -1, ()))  # skips __new__, as no caller should
    builds = [
        lambda: table1._replace(capacity=-1),
        lambda: Instance._make((0, 1, ())),
        lambda: pickle.loads(pickle.dumps(broken)),
        lambda: copy.copy(broken),
        lambda: copy.deepcopy(broken),
    ]
    if hasattr(copy, "replace"):  # Python 3.13 and later
        builds.append(lambda: copy.replace(table1, capacity=-1))
    for build in builds:
        with pytest.raises(InvalidInstanceError):
            build()


def test_dataclass_protocol_on_first_use():
    # Instance builds its dataclass fields when first read, so run in a fresh
    # process: in this one, an earlier test may have read them. An Item is a
    # plain named tuple, and no dataclass.
    script = """
import sys
from qknap.model import Instance, InvalidInstanceError, Item
assert "dataclasses" not in sys.modules
assert not isinstance(vars(Instance)["__dataclass_fields__"], dict)
from dataclasses import fields, is_dataclass, replace
inst = Instance(2, 5, (Item(1, 2, 1), Item(2, 3, 2), Item(3, 4, 2)))
assert is_dataclass(inst) and not is_dataclass(inst.items[0]) and not is_dataclass(Item)
assert [f.name for f in fields(inst)] == ["k", "capacity", "items"]
# the call perfbench's traced runs make on every instance they cut short
assert replace(inst, items=inst.items[:2]) == Instance(inst.k, inst.capacity, inst.items[:2])
assert inst.items[0]._replace(level=2) == Item(1, 2, 2)
try:
    replace(inst, capacity=-1)
except InvalidInstanceError:
    pass
else:
    sys.exit("replace built an invalid instance")
assert isinstance(vars(Instance)["__dataclass_fields__"], dict)
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_records_refuse_assignment(table1):
    # Each record holds its fields and nothing beside them: no name, field or
    # not, can be set or deleted, and an Instance's by_id cannot be planted.
    result, oracle, greedy = solve(table1), enumerate_frontier(table1), greedy_r(table1)
    records = (table1, table1.items[0], result.labels[0], result, result.stats, oracle.stats, greedy)
    for record in records:
        assert not hasattr(record, "__dict__")
        for name in (*record._fields, "note"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(AttributeError):
        Valuation([1, 2]).note = 0
    with pytest.raises(AttributeError):
        table1.by_id = {1: Item(1, 1, 4)}
    assert table1.capacity == 6 and result.labels[0].weight == 6
    assert table1.by_id == {item.id: item for item in table1.items}


def test_equal_instances_are_equal_and_hash_equal(table1, data_dir):
    twin = Instance(k=4, capacity=6, items=list(table1.items))
    assert twin is not table1
    assert twin == table1 and hash(twin) == hash(table1)
    assert read_instance(str(data_dir / "table1.qknap")) == table1
    assert table1._replace(capacity=5) != table1
    assert table1 == (table1.k, table1.capacity, table1.items)
    assert len({table1, twin, table1._replace(k=5)}) == 2
    assert repr(Instance(k=1, capacity=2, items=(Item(1, 2, 1),))) == (
        "Instance(k=1, capacity=2, items=(Item(id=1, weight=2, level=1),))"
    )


def test_instances_pickle(table1):
    clone = pickle.loads(pickle.dumps(table1))
    assert clone == table1 and clone.by_id == table1.by_id
    assert not hasattr(clone, "__dict__")


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
        fields["items"][pos] = fields["items"][pos]._replace(**{field: value})
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
