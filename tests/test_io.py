from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instances
from qknap import (
    GeneratorParams,
    Instance,
    InvalidInstanceError,
    Item,
    ParseError,
    SplitMix64,
    generate_instance,
    parse_instance,
    serialize_frontier,
    serialize_instance,
    solve,
)

TABLE1_TEXT = """qknap 1
levels 4
capacity 6
items 4
1 1 1
2 2 2
3 3 3
4 4 4
"""


def test_parse_table1_file(data_dir, table1):
    text = (data_dir / "table1.qknap").read_text()
    assert parse_instance(text) == table1


def test_serialize_table1(table1):
    assert serialize_instance(table1) == TABLE1_TEXT


def test_parse_ignores_comments_and_blanks(table1):
    text = "# generated by hand\n\nqknap 1\nlevels 4   # four grades\ncapacity 6\n\nitems 4\n1 1 1\n2 2 2\n3 3 3\n4 4 4  # best item\n"
    assert parse_instance(text) == table1


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("", 1, "empty file"),
        ("qknap 2\nlevels 1\ncapacity 0\nitems 0\n", 1, "unsupported format version"),
        ("levels 1\ncapacity 0\nitems 0\n", 1, "expected 'qknap'"),
        ("qknap 1\nlevels 1\ncapacity 0\n", 3, "unexpected end of file"),
        ("qknap 1\nlevels x\ncapacity 0\nitems 0\n", 2, "must be an integer"),
        ("qknap 1\nlevels 1\ncapacity 0\nitems 2\n1 1 1\n", 5, "item count mismatch"),
        ("qknap 1\nlevels 1\ncapacity 9\nitems 1\n1 1 1\n2 1 1\n", 6, "item count mismatch"),
        ("qknap 1\nlevels 1\ncapacity 0\nitems 1\n1 1\n", 5, "item line needs"),
        ("qknap 1\nlevels 1\ncapacity 0\nitems 1\n1 one 1\n", 5, "must be integers"),
        ("qknap 1\nlevels 1\ncapacity 0\nitems -1\n", 4, "item count must be >= 0"),
        ("qknap 1\nlevels 1\ncapacity 0\nitems -2\n1 1 1\n", 4, "item count must be >= 0"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_instance(text)
    assert f"line {line}:" in str(info.value)


_KEYWORDS = ("qknap", "levels", "capacity", "items")
_SMALL = st.sampled_from([str(v) for v in range(-2, 4)])


def _keyword_line(keyword):
    return st.tuples(st.just(keyword), _SMALL).map(" ".join)


_LINE = st.one_of(
    st.sampled_from(_KEYWORDS).flatmap(_keyword_line),
    st.tuples(_SMALL, _SMALL, _SMALL).map(" ".join),
    st.text(max_size=12),
)


@settings(max_examples=500)
@given(
    # half the headers are the four keywords in order, so counts and item lines get parsed
    st.tuples(*map(_keyword_line, _KEYWORDS)) | st.tuples(*[_LINE] * 4),
    st.lists(_LINE, max_size=8),
)
def test_parse_raises_only_parse_errors(header, lines):
    try:
        parse_instance("\n".join((*header, *lines)))
    except (ParseError, InvalidInstanceError):
        pass


def test_parse_validates_invariants():
    text = "qknap 1\nlevels 2\ncapacity 5\nitems 1\n1 1 3\n"
    with pytest.raises(InvalidInstanceError, match="level out of range"):
        parse_instance(text)


@given(instances())
def test_round_trip_identity(inst):
    assert parse_instance(serialize_instance(inst)) == inst


def test_splitmix64_reference_stream():
    # reference values for the widely used 64-bit mixer, seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_seed_bounds():
    SplitMix64(0)
    SplitMix64(2**64 - 1)
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(2**64)


def test_uniform_range_and_determinism():
    rng = SplitMix64(99)
    draws = [rng.uniform(7) for _ in range(500)]
    assert all(1 <= d <= 7 for d in draws)
    assert set(draws) == set(range(1, 8))
    rng2 = SplitMix64(99)
    assert [rng2.uniform(7) for _ in range(500)] == draws
    assert SplitMix64(5).uniform(1) == 1


def test_uniform_rejects_bad_m():
    with pytest.raises(ValueError):
        SplitMix64(1).uniform(0)


def test_generator_params_validation():
    good = dict(n=2, k=2, weight_max=3, seed=1, capacity=5)
    GeneratorParams(**good)
    with pytest.raises(ValueError, match="exactly one"):
        GeneratorParams(n=2, k=2, weight_max=3, seed=1)
    with pytest.raises(ValueError, match="exactly one"):
        GeneratorParams(n=2, k=2, weight_max=3, seed=1, capacity=5, ratio=Fraction(1, 2))
    with pytest.raises(ValueError, match="ratio"):
        GeneratorParams(n=2, k=2, weight_max=3, seed=1, ratio=Fraction(3, 2))
    with pytest.raises(ValueError, match="n must be"):
        GeneratorParams(n=0, k=2, weight_max=3, seed=1, capacity=5)


def test_generate_is_deterministic_and_matches_golden(data_dir):
    params = GeneratorParams(n=4, k=4, weight_max=4, seed=42, capacity=6)
    a = generate_instance(params)
    b = generate_instance(params)
    assert serialize_instance(a) == serialize_instance(b)
    golden = (data_dir / "gen_seed42.qknap").read_text()
    assert serialize_instance(a) == golden


def test_generate_draw_order_weights_then_levels():
    params = GeneratorParams(n=3, k=5, weight_max=9, seed=7, capacity=10)
    inst = generate_instance(params)
    rng = SplitMix64(7)
    weights = [rng.uniform(9) for _ in range(3)]
    levels = [rng.uniform(5) for _ in range(3)]
    assert [it.weight for it in inst.items] == weights
    assert [it.level for it in inst.items] == levels
    assert [it.id for it in inst.items] == [1, 2, 3]


def test_generate_ratio_capacity():
    params = GeneratorParams(n=5, k=2, weight_max=6, seed=11, ratio=Fraction(1, 3))
    inst = generate_instance(params)
    assert inst.capacity == ceil(Fraction(1, 3) * sum(it.weight for it in inst.items))


def test_generate_single_item():
    inst = generate_instance(GeneratorParams(n=1, k=1, weight_max=1, seed=0, capacity=1))
    assert inst.items == (Item(1, 1, 1),)


def test_serialize_frontier_table1(table1):
    out = serialize_frontier(solve(table1))
    lines = out.splitlines()
    assert lines[0] == "vector=(0,1,0,1) weight=6 items=[2,4]"
    assert lines[1] == "vector=(1,1,1,0) weight=6 items=[1,2,3]"
    assert lines[2] == "# labels=2"
    assert any(line.startswith("# wall_time=") for line in lines)


def test_serialize_frontier_puts_matrix_cells_after_the_stats(table1):
    lines = serialize_frontier(solve(table1, keep_matrix=True)).splitlines()
    last_stat = max(i for i, line in enumerate(lines) if line.startswith("#"))
    assert lines[last_stat].startswith("# backend=")
    cells = lines[last_stat + 1 :]
    assert len(cells) == 5 * 7 and all(line.startswith("cell ") for line in cells)
    assert cells[-1] == "cell 4 6: (0,1,0,1) (1,1,1,0)"


def test_serialize_frontier_empty():
    inst = Instance(k=1, capacity=0, items=(Item(1, 1, 1),))
    out = serialize_frontier(solve(inst))
    assert all(line.startswith("#") for line in out.splitlines())


def test_serialize_frontier_single_label():
    inst = Instance(k=1, capacity=2, items=(Item(1, 2, 1),))
    out = serialize_frontier(solve(inst))
    assert out.splitlines()[0] == "vector=(1) weight=2 items=[1]"
