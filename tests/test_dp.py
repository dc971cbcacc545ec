import importlib.machinery
import json
import os
import pwd
import random
import subprocess
import sys
import sysconfig
from array import array
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qknap.ckernel
import qknap.dp
import qknap.twin
from helpers import C_BACKEND, KERNELS, files_in, instances, needs_cc, small_sweep
from qknap import (
    GeneratorParams,
    Instance,
    Item,
    Label,
    enumerate_frontier,
    generate_instance,
    label_bound,
    pareto_filter,
    parse_instance,
    rank_cardinality_vector,
    serialize_frontier,
    serialize_instance,
    solve,
    total_weight,
    weakly_dominates,
)

# Expected DP table for the four-item staircase instance: cell vectors for
# i=0..4 (rows) by x=0..6 (columns), zero label stripped, canonical order.
_E = []
_L1 = [(1, 0, 0, 0)]
_L12 = [(1, 1, 0, 0)]
TABLE1_CELLS = [
    [_E, _E, _E, _E, _E, _E, _E],
    [_E, _L1, _L1, _L1, _L1, _L1, _L1],
    [_E, _L1, [(0, 1, 0, 0)], _L12, _L12, _L12, _L12],
    [
        _E,
        _L1,
        [(0, 1, 0, 0)],
        [(0, 0, 1, 0), (1, 1, 0, 0)],
        [(1, 0, 1, 0)],
        [(0, 1, 1, 0)],
        [(1, 1, 1, 0)],
    ],
    [
        _E,
        _L1,
        [(0, 1, 0, 0)],
        [(0, 0, 1, 0), (1, 1, 0, 0)],
        [(0, 0, 0, 1), (1, 0, 1, 0)],
        [(1, 0, 0, 1), (0, 1, 1, 0)],
        [(0, 1, 0, 1), (1, 1, 1, 0)],
    ],
]


def expected_table1_cell(i, x):
    return TABLE1_CELLS[i][x]


def test_solve_table1_frontier(table1):
    res = solve(table1)
    assert [(lab.vector, lab.weight, lab.items) for lab in res.labels] == [
        ((0, 1, 0, 1), 6, (2, 4)),
        ((1, 1, 1, 0), 6, (1, 2, 3)),
    ]


def test_solve_table1_matrix_matches_expected_cells(table1):
    res = solve(table1, keep_matrix=True)
    assert len(res.matrix) == 5 and len(res.matrix[0]) == 7
    for i in range(5):
        for x in range(7):
            got = [lab.vector for lab in res.matrix[i][x]]
            assert got == expected_table1_cell(i, x), (i, x)


def test_solve_zero_capacity(table1):
    zero = Instance(k=4, capacity=0, items=table1.items)
    # every item heavier than the capacity: each column keeps only the zero label
    heavy = Instance(
        k=4, capacity=2, items=tuple(it._replace(weight=it.weight + 2) for it in table1.items)
    )
    # the first item fits no column, the second fits columns 1 and 2
    late = Instance(k=2, capacity=2, items=(Item(1, 5, 1), Item(2, 1, 2)))
    for (min_cells, backend), keep in product((k.values for k in KERNELS), (False, True)):
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            for inst in (zero, heavy):
                res = solve(inst, keep_matrix=keep)
                assert res.labels == ()
                assert res.stats.backend == backend
                # the zero label is not reported, so it never counts toward a cell's size
                assert res.stats.max_cell == 0, (min_cells, keep, inst.capacity)
            # one item: every column holds one label, the zero label or the item
            one = zero._replace(capacity=2, items=zero.items[:1])
            assert solve(one, keep_matrix=keep).stats.max_cell == 1
            res = solve(late, keep_matrix=keep)
            assert res.labels == (Label((0, 1), 1, (2,)),)
            assert res.stats.backend == backend
            assert res.stats.max_cell == 1, (min_cells, keep)


def test_solve_empty_instance():
    assert solve(Instance(k=2, capacity=5, items=())).labels == ()


def test_capacity_beyond_the_total_weight_is_clamped():
    inst = generate_instance(GeneratorParams(n=8, k=1, weight_max=5, seed=3, capacity=1))
    n, total = len(inst.items), sum(item.weight for item in inst.items)
    at = solve(inst._replace(capacity=total))
    # the windows already give row 0 only total + 1 columns; the clamp sets cells
    beyond = solve(inst._replace(capacity=total + 10**6))
    assert beyond.labels == at.labels
    assert beyond.stats.cells == at.stats.cells == n * (total + 1)
    # a matrix shows every column up to the capacity
    matrix = solve(inst._replace(capacity=total + 3), keep_matrix=True)
    assert matrix.labels == at.labels
    assert matrix.stats.cells == n * (total + 4) and len(matrix.matrix[0]) == total + 4


def test_label_bound_examples():
    assert label_bound(4, 4) == 69
    assert label_bound(3, 0) == 0
    assert label_bound(1, 5) == 5


def test_label_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        label_bound(0, 3)
    with pytest.raises(ValueError):
        label_bound(2, -1)


def test_stats_counters(table1):
    res = solve(table1)
    assert res.stats.cells == 4 * 7
    assert res.stats.max_cell == 2
    assert res.stats.comparisons > 0
    assert res.stats.wall_time >= 0


def test_determinism(table1):
    a = solve(table1, keep_matrix=True)
    b = solve(table1, keep_matrix=True)
    assert a.labels == b.labels
    assert a.matrix == b.matrix
    assert (a.stats.cells, a.stats.max_cell, a.stats.comparisons) == (
        b.stats.cells,
        b.stats.max_cell,
        b.stats.comparisons,
    )


@settings(deadline=None, max_examples=60)
@given(instances(max_n=9, max_k=4, max_weight=6, max_capacity=16))
def test_solve_matches_oracle_exactly(inst):
    got = solve(inst).labels
    want = enumerate_frontier(inst).labels
    assert got == want  # vectors, weights, and witness subsets
    # the C kernel too, whenever it can be built here
    with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", 0):
        res = solve(inst)
    assert res.stats.backend == C_BACKEND
    assert res.labels == want


@settings(deadline=None, max_examples=60)
@given(instances(max_n=9, max_k=4, max_weight=4, max_capacity=16), st.randoms(use_true_random=False))
def test_item_order_does_not_change_the_answer(inst, rng):
    shuffled = list(inst.items)
    rng.shuffle(shuffled)
    orders = [inst._replace(items=inst.items[::-1]), inst._replace(items=tuple(shuffled))]
    # a solve sweeps items heaviest first, ties in input order, and --matrix in
    # input order; the witness rule must not depend on either
    want = solve(inst, keep_matrix=True).labels
    for min_cells, backend in (k.values for k in KERNELS):
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            for each in (inst, *orders):
                res = solve(each)
                assert res.stats.backend == backend
                assert res.labels == want


@settings(deadline=None, max_examples=40)
@given(instances(max_n=8, max_k=3, max_weight=5, max_capacity=12))
def test_cells_are_filter_stable_and_bounded(inst):
    for min_cells, backend in (k.values for k in KERNELS):
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            res = solve(inst, keep_matrix=True)
        assert res.stats.backend == backend
        for i in range(len(res.matrix)):
            for x in range(len(res.matrix[0])):
                cell = list(res.matrix[i][x])
                assert len(cell) <= label_bound(inst.k, i)
                assert pareto_filter(cell) == cell
                for lab in cell:
                    # witnesses draw from the first i items and fit the budget
                    prefix_ids = {it.id for it in inst.items[:i]}
                    assert set(lab.items) <= prefix_ids
                    assert lab.weight == total_weight(lab.items, inst) <= x
                    assert lab.vector == rank_cardinality_vector(lab.items, inst)


@settings(deadline=None, max_examples=25)
@given(instances(max_n=7, max_k=3, max_weight=5, max_capacity=10))
def test_every_cell_equals_prefix_frontier(inst):
    for min_cells, backend in ((0, C_BACKEND), (10**12, "python")):  # C forced on, then off
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            res = solve(inst, keep_matrix=True)
        assert res.stats.backend == backend
        for i in range(len(res.matrix)):
            for x in range(len(res.matrix[0])):
                prefix = Instance(k=inst.k, capacity=x, items=inst.items[:i])
                assert res.matrix[i][x] == enumerate_frontier(prefix).labels, (i, x, min_cells)


_PATH_SHAPES = [
    # duplicate (weight, level) pairs force equal-vector equal-weight ties
    GeneratorParams(n=24, k=3, weight_max=3, seed=1, capacity=30),
    GeneratorParams(n=24, k=3, weight_max=3, seed=2, capacity=30),
    GeneratorParams(n=30, k=1, weight_max=2, seed=3, capacity=25),
    GeneratorParams(n=25, k=2, weight_max=4, seed=4, capacity=40),
    GeneratorParams(n=18, k=4, weight_max=5, seed=5, capacity=35),
    GeneratorParams(n=14, k=5, weight_max=6, seed=6, capacity=28),
    GeneratorParams(n=40, k=2, weight_max=1, seed=7, capacity=12),  # all ties
    # suffix sums in lanes of n.bit_length() + 1 bits, 64 // that many to a word
    GeneratorParams(n=130, k=8, weight_max=3, seed=12, capacity=40),  # 9-bit lanes, 7 a word
    GeneratorParams(n=70, k=8, weight_max=3, seed=13, capacity=30),  # 8 lanes fill a word
    GeneratorParams(n=70, k=9, weight_max=3, seed=14, capacity=40),  # one lane past a word
]

# The shapes above number items 1..n in input order, so each new item has the
# largest id so far. These tie-heavy shapes carry ids in a seeded shuffle
# instead: (shape, shuffle seed).
_SHUFFLED_ID_SHAPES = [
    (GeneratorParams(n=24, k=3, weight_max=3, seed=8, capacity=30), 1),
    (GeneratorParams(n=30, k=2, weight_max=2, seed=9, capacity=25), 2),
    (GeneratorParams(n=40, k=2, weight_max=1, seed=10, capacity=12), 3),  # all ties
    (GeneratorParams(n=24, k=4, weight_max=3, seed=11, capacity=30), 4),
    (GeneratorParams(n=30, k=1, weight_max=2, seed=15, capacity=25), 5),
    (GeneratorParams(n=130, k=8, weight_max=2, seed=16, capacity=30), 6),  # 2 lane words
]


def _path_instance(shape):
    if isinstance(shape, GeneratorParams):
        return generate_instance(shape)
    params, seed = shape
    inst = generate_instance(params)
    ids = [item.id for item in inst.items]
    random.Random(seed).shuffle(ids)
    return inst._replace(items=tuple(item._replace(id=i) for item, i in zip(inst.items, ids)))


@pytest.mark.parametrize("keep", [False, True], ids=["solve", "matrix"])
@pytest.mark.parametrize("min_cells, backend", KERNELS)
@pytest.mark.parametrize("shape", _SHUFFLED_ID_SHAPES)
def test_ids_only_name_the_items(shape, min_cells, backend, keep, monkeypatch):
    # A witness breaks weight ties by id, but which vectors and weights a cell
    # holds, and the work the sweep does to find them, do not depend on the ids.
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", min_cells)
    in_order, shuffled = (solve(_path_instance(s), keep_matrix=keep) for s in (shape[0], shape))
    assert in_order.stats.backend == shuffled.stats.backend == backend
    assert in_order.stats[:3] == shuffled.stats[:3]  # cells, max_cell, comparisons
    strip = lambda labels: [(lab.vector, lab.weight) for lab in labels]
    assert strip(in_order.labels) == strip(shuffled.labels)
    if keep:
        cells = lambda res: [[strip(cell) for cell in row] for row in res.matrix]
        assert cells(in_order) == cells(shuffled)


@pytest.mark.parametrize("seed", range(1, 31))
def test_tie_break_matches_global_oracle_rule(seed):
    # duplicate items with shuffled ids: per-cell tie resolution must land on
    # the same minimal-weight, id-lexicographic witness the oracle computes
    import random

    rng = random.Random(seed)
    n = 10
    ids = list(range(1, 3 * n, 3))
    rng.shuffle(ids)
    items = tuple(Item(ids[i], rng.randint(1, 2), rng.randint(1, 2)) for i in range(n))
    inst = Instance(k=2, capacity=rng.randint(3, 10), items=items)
    assert solve(inst).labels == enumerate_frontier(inst).labels


# The shapes of the two row tests below.
_SHAPES = _PATH_SHAPES + _SHUFFLED_ID_SHAPES + [
    GeneratorParams(n=30, k=3, weight_max=9, seed=17, capacity=6),  # some items fit nowhere
]


@needs_cc
@pytest.mark.parametrize("params", _SHAPES)
def test_c_and_python_kernels_agree(params, monkeypatch):
    # Every sweep of a solve and of a --matrix solve gives the same rows in C
    # and in the twin, byte for byte and exits included, and the same
    # comparisons and max_cell; so C answers as the twin does. The next test
    # checks the twin's rows, and so C's.
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is not None, reason
    inst, twin, sweeps = _path_instance(params), qknap.twin.sweep, []

    def both(*args):
        for keep in dict.fromkeys((True, args[-1])):  # every row, then what the solve asks for
            want = twin(*args[:-1], keep)
            assert kernel(*args[:-1], keep) == want, f"sweep {len(sweeps)}, keep={keep}"
        sweeps.append(args)
        return want

    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 0)
    fast = [solve(inst, keep_matrix=keep) for keep in (False, True)]
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 10**12)
    monkeypatch.setattr(qknap.twin, "sweep", both)
    for keep, c in zip((False, True), fast):
        ref = solve(inst, keep_matrix=keep)
        assert (ref.stats.backend, c.stats.backend) == ("python", "c-kernel")
        assert (ref.labels, ref.matrix, ref.stats[:3]) == (c.labels, c.matrix, c.stats[:3])
    assert len(sweeps) == 2


def _records(row, lanes):
    """A row's records as ``(counts, weight, exit)``, the zero label included."""
    ks, _, mask, where = lanes
    words = memoryview(row).cast("Q")
    for i in range(0, len(words), ks + 2):
        sums = [words[i + q] >> shift & mask for q, shift in where] + [0]
        yield tuple(a - b for a, b in zip(sums, sums[1:])), words[i + ks], words[i + ks + 1]


@pytest.mark.parametrize("params", _SHAPES)
def test_a_solve_sweeps_the_heaviest_items_first_over_the_columns_that_reach_W(
    params, monkeypatch
):
    # The rows of the twin's two sweeps, which the test above finds in C too.
    # Each sweep runs once and keeps every row, whatever the solve asks for.
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 10**12)
    twin, sweeps = qknap.twin.sweep, []

    def recorded(*args):
        rows, *counts = twin(*args[:-1], True)
        sweeps.append((args, rows))
        return (rows if args[-1] else rows[-1:]), *counts

    monkeypatch.setattr(qknap.twin, "sweep", recorded)
    inst = _path_instance(params)
    matrix, res = solve(inst, keep_matrix=True), solve(inst)
    assert matrix.stats.backend == res.stats.backend == "python"
    want = matrix.labels  # input order, every column
    assert res.labels == want
    [(matrix_args, matrix_rows), ((items, ts, ks, _, W_arg, keep), rows)] = sweeps
    lanes = qknap.dp._lanes(inst.k, len(inst.items))
    # An unclamped row's label leaves the frontier at the weight of the
    # lightest other label of the row that covers it, so --matrix reads cell
    # x as the labels of weight <= x < exit.
    assert len(matrix_rows) == len(inst.items) + 1
    for i, row in enumerate(matrix_rows[1:], start=1):
        records = list(_records(row, lanes))
        for j, (vector, weight, exit) in enumerate(records):
            others = records[:j] + records[j + 1 :]
            covers = [w for v, w, _ in others if weakly_dominates(v, vector)]
            assert exit == min(covers, default=matrix_args[4] + 1), (i, vector, weight)
    # a solve sweeps the items that fit W heaviest first
    W = min(inst.capacity, sum(item.weight for item in inst.items))
    fit = [item for item in inst.items if item.weight <= W]
    order = sorted(fit, key=lambda item: -item.weight)  # stable: ties keep input order
    assert (len(rows), W_arg, keep) == (len(order) + 1, W, False)
    # each item record holds its level's count, its weight and an exit of 0
    assert list(_records(items.tobytes(), lanes)) == [
        (rank_cardinality_vector((item.id,), inst), item.weight, 0) for item in order
    ]
    for i, L in enumerate(rows[1:], start=1):
        # row i clamps at W - (weight of the items still to come), is sorted by
        # clamped weight and holds no label heavier than W
        t = ts[i - 1]
        assert t == max(0, W - sum(item.weight for item in order[i:])), f"item {i}"
        clamped = [max(weight, t) for _, weight, _ in _records(L, lanes)]
        assert clamped == sorted(clamped) and clamped[-1] <= W, f"item {i}"
    # the last row, clamped at W, holds the frontier, plus the zero label when
    # it is empty, and no label leaves it: every exit is W + 1
    assert qknap.dp._canonical(qknap.dp._labels(rows[-1], lanes, fit)) == want
    assert len(rows[-1]) // (8 * (ks + 2)) == max(1, len(want))
    assert {exit for *_, exit in _records(rows[-1], lanes)} == {W + 1}


@pytest.mark.parametrize("n", [127, 128, 255, 256])
@pytest.mark.parametrize("min_cells, backend", KERNELS)
def test_a_lane_holds_every_item(n, min_cells, backend, monkeypatch):
    # Everything fits, so the frontier is one label holding every item, and its
    # first suffix sum is n: the most a lane of n.bit_length() + 1 bits holds
    # below its guard bit. The oracle cannot enumerate 2**n subsets.
    rng = random.Random(n)
    items = tuple(Item(i, 1, rng.randint(1, 8)) for i in range(1, n + 1))
    inst = Instance(k=8, capacity=n + 5, items=items)
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", min_cells)
    res = solve(inst)
    assert res.stats.backend == backend
    ids = tuple(range(1, n + 1))
    assert [(lab.vector, lab.weight, lab.items) for lab in res.labels] == [
        (rank_cardinality_vector(ids, inst), n, ids)
    ]



@needs_cc
@pytest.mark.parametrize(
    "bad",
    [
        dict(ts=array("Q", [0, 0, 0])),
        dict(ts=array("Q", [0])),
        dict(items=array("Q", [1, 1, 0, 0o11, 2, 0]).tobytes()),
        dict(ts=array("q", [0, 0])),
        dict(items=array("Q", [1, 2**64 - 1, 0, 0o11, 2, 0])),  # it carries out
        dict(items=array("Q", [1, 1, 0, 0o11, 0, 0])),  # no item weighs 0
        dict(ks=4),  # one record of 6 words for two items
        dict(ks=2),  # 6 words are no whole number of 4-word records
        dict(ks=0, items=array("Q", [1, 0, 2, 0])),  # records of the weight and exit alone
        dict(ks=2**64 - 2),  # ks + 2 wraps to a record of 0 words
        dict(ks=2**64 - 1),  # ks + 2 wraps to a record of 1 word
        dict(items=array("q", [1, 1, 0, 0o11, 2, 0])),
        dict(items=array("Q", [1, 1, 0, 0o11, 2])),
        dict(ts=array("Q", [4, 0])),
        dict(ts=array("Q", [0, 4])),
        dict(ts=array("q", [-1, 0])),
        dict(W=2**63, ts=array("Q", [0, 0])),  # weights below 2**63 carry out of no word
        dict(W=2**64),
        dict(ks=-1),
    ],
    ids=[
        "ts-longer-than-the-items",
        "ts-shorter-than-the-items",
        "items-of-bytes",
        "signed-ts",
        "weight-beyond-int64",
        "weight-zero",
        "record-of-both-items",
        "record-straddles-the-items",
        "ks-zero",
        "record-wraps-to-zero-words",
        "record-wraps-to-one-word",
        "signed-item",
        "item-one-word-short",
        "clamp-beyond-W",
        "clamp-beyond-W-on-the-last-row",
        "clamp-below-zero",
        "W-beyond-int64",
        "W-beyond-uint64",
        "ks-below-zero",
    ],
)
def test_c_kernel_refuses_buffers_that_do_not_fit(bad):
    # the C side reads and writes through bare pointers, so bad buffers must be
    # refused before it touches them
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is not None, reason
    # a record is (lane word, weight, exit); a label the merge placed has exit W + 1 = 4
    # until a label covers it, and row 0, which no merge made, is all zero
    zero, one, one_two, both = [0, 0], [1, 1], [0o11, 2], [0o12, 3]
    row_0, row_1 = zero + [0], zero + [1] + one + [4]
    last = zero + [1] + one + [2] + one_two + [3] + both + [4]
    for each in (kernel, qknap.twin.sweep):
        # unclamped, every row keeps the zero label for cell 0; item 1 covers it
        # at 1, then item 2 alone covers item 1 at 2 and both cover item 2 at 3
        assert small_sweep(each) == ([row_0, row_1, last], 4, 1)
        assert small_sweep(each, keep=False) == ([last], 4, 1)
        # the last row clamped at 3: all four weigh 3, so both items cover the rest where they stand
        assert small_sweep(each, ts=array("Q", [0, 3])) == ([row_0, row_1, both + [4]], 4, 1)
        # no items: row 0 alone, the zero label, a record of ks + 2 words that no merge wrote
        assert small_sweep(each, items=array("Q"), ts=array("Q"), ks=2) == ([[0, 0, 0, 0]], 0, 0)
    with pytest.raises(ValueError, match="do not fit"):
        small_sweep(kernel, **bad)


@needs_cc
def test_c_rows_outgrow_their_first_buffers():
    # The criterion-9 family at W=500 grows its rows from the zero label alone
    # to over 900 labels, so the sweep regrows its row and frontier buffers
    # about ten times. Every row must match the twin's.
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is not None, reason
    inst = generate_instance(GeneratorParams(n=200, k=3, weight_max=50, seed=1, capacity=500))
    sweeps, twin = [], qknap.twin.sweep
    with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", 10**12):
        with mock.patch.object(qknap.twin, "sweep", lambda *a: sweeps.append(a) or twin(*a)):
            want = solve(inst)
    [(*args, keep)] = sweeps
    got = kernel(*args, True)
    assert got == twin(*args, True)
    assert max(map(len, got[0])) // (8 * (args[2] + 2)) > 900  # a record is ks + 2 words
    assert got[1:] == (want.stats.comparisons, want.stats.max_cell)


def _unknown_uid(uid):
    raise KeyError(f"getpwuid(): uid not found: {uid}")


def _make_the_kernel_unavailable(case, tmp, monkeypatch):
    """Set up one way for the C kernel to be unavailable: ``(reason prefix, cause)``.

    The cause, a path or a word, must appear in the reason.
    """
    cache = tmp / "cache"
    if case == "no-compiler":
        monkeypatch.setenv("CC", f"{tmp}/no-such-cc")
        return f"no C compiler {tmp}/no-such-cc to build ", f"{tmp}/no-such-cc"
    if case == "compiler-fails":  # it runs in a new cache directory, and fails
        monkeypatch.setenv("CC", "false")
        return "false failed (exit 1): ", "false"
    if case == "compiler-not-executable":  # +x without a shebang: exec fails, ENOEXEC
        cc = tmp / "cc"
        cc.write_text("not a program\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        return "no C row kernel: ", str(cc)
    if case == "no-python-header":  # a compiler that runs, and no Python.h to build with
        monkeypatch.setenv("CC", "false")
        include = tmp / "include"
        monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(include)})
        return f"no Python.h in {include} to build ", str(include)
    if case == "cache-not-writable":
        cache.write_text("")
        monkeypatch.setenv("CC", "false")
        return "no C row kernel: ", f"{cache}/qknap"
    if case == "source-unreadable":
        monkeypatch.setenv("CC", "false")  # any $CC that splits: the load stops before it
        monkeypatch.setattr(qknap.ckernel, "__file__", str(tmp / "src" / "dp.py"))
        return "no C row kernel: ", f"{tmp}/src/_rowkernel.c"
    if case == "cached-build-unloadable":
        # garbage where a build would be: no compiler is needed to load it
        monkeypatch.setenv("CC", f"{tmp}/no-such-cc")
        lib = cache / "qknap" / qknap.ckernel._load_row_kernel()[1].split()[-1]
        qknap.ckernel._load_row_kernel.cache_clear()
        lib.parent.mkdir(parents=True)
        lib.write_text("garbage")
        return "no C row kernel: ", str(lib)
    if case == "no-extension-suffix":  # an interpreter that loads no extension module
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        return "no C row kernel: ", "extension"
    assert case == "no-home"  # no $HOME, no $XDG_CACHE_HOME and a uid pwd does not know
    monkeypatch.setenv("CC", "false")  # any $CC that splits: the load stops before it
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(pwd, "getpwuid", _unknown_uid)
    return "no C row kernel: ", "home"


@pytest.mark.parametrize(
    "case",
    [
        "no-compiler",
        "compiler-fails",
        "no-python-header",
        "cache-not-writable",
        "source-unreadable",
        "cached-build-unloadable",
        "compiler-not-executable",
        "no-home",
        "no-extension-suffix",
    ],
)
@pytest.mark.usefixtures("fresh_loader")
def test_when_no_kernel_builds_solve_runs_the_python_kernel(tmp_path, monkeypatch, case):
    builds = tmp_path / "cache" / "qknap"
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 1)
    reason, cause = _make_the_kernel_unavailable(case, tmp_path, monkeypatch)
    planted = files_in(builds)
    kernel, why = qknap.ckernel._load_row_kernel()
    assert kernel is None
    assert why.startswith(reason) and cause in why, why
    assert files_in(builds) == planted  # no temp file left behind
    inst = generate_instance(GeneratorParams(n=14, k=3, weight_max=3, seed=1, capacity=18))
    res = solve(inst)
    assert res.stats.backend == "python"
    assert res.labels == enumerate_frontier(inst).labels


def test_solve_runs_where_numpy_cannot_be_imported(tmp_path, data_dir):
    big = generate_instance(GeneratorParams(n=40, k=3, weight_max=9, seed=1, capacity=60))
    assert solve(big).stats.cells >= qknap.dp._KERNEL_MIN_CELLS
    (tmp_path / "big.qknap").write_text(serialize_instance(big))
    script = (
        'import sys; sys.modules["numpy"] = None; '
        "from qknap.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for path, backend in [(data_dir / "table1.qknap", "python"), (tmp_path / "big.qknap", C_BACKEND)]:
        run = subprocess.run(
            [sys.executable, "-c", script, "solve", str(path)], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert f"# backend={backend}" in lines
        want = serialize_frontier(solve(parse_instance(path.read_text()))).splitlines()
        assert [ln for ln in lines if not ln.startswith("#")] == [
            ln for ln in want if not ln.startswith("#")
        ]


def _imports(*args, env=None):
    """``python -X importtime *args``: the finished process and every module it imported."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env
    )
    lines = run.stderr.splitlines()
    timed = [ln.startswith("import time:") for ln in lines]
    names = {ln.rsplit("|", 1)[1].strip() for ln, t in zip(lines, timed) if t}
    run.stderr = "\n".join(ln for ln, t in zip(lines, timed) if not t)  # the process's own
    return run, names


@needs_cc
def test_a_warm_solve_loads_only_what_it_runs(tmp_path, data_dir):
    # With the kernel already built, a solve or greedy process needs neither the
    # compiler toolchain, its builder qknap.ckbuild, the instance generator nor
    # the subcommands it does not run, and a plain request is served without
    # argparse or qknap.commands. A C solve loads no qknap.twin, and a solve on
    # the Python twin no qknap.ckernel. Only a --json request loads json. Each
    # runs as `python -m qknap` does.
    big = generate_instance(GeneratorParams(n=40, k=3, weight_max=9, seed=1, capacity=60))
    (tmp_path / "big.qknap").write_text(serialize_instance(big))
    qknap.ckernel._load_row_kernel.cache_clear()
    kernel, reason = qknap.ckernel._load_row_kernel()  # the subprocess inherits this cache
    assert kernel is not None, reason
    # what site imports on its own (a .pth file may preload pathlib, as certifi's
    # does), so that `loaded` counts only what came after it
    _, bare = _imports("-c", "pass")
    c_solve = {"qknap.dp", "qknap.ckernel"}
    for path, backend, rest, runs in [
        (tmp_path / "big.qknap", "c-kernel", [], c_solve),  # 2,440 cells
        (tmp_path / "big.qknap", "c-kernel", ["--matrix"], c_solve),
        (tmp_path / "big.qknap", "c-kernel", ["--json"], c_solve),
        (data_dir / "table1.qknap", "python", [], {"qknap.dp", "qknap.twin"}),  # 28 cells
        (data_dir / "table1.qknap", "python", ["--matrix"], {"qknap.dp", "qknap.twin"}),
        (data_dir / "table1.qknap", "python", ["--json"], {"qknap.dp", "qknap.twin"}),
        (tmp_path / "big.qknap", None, ["r"], {"qknap.greedy"}),
        (data_dir / "table1.qknap", None, ["w"], {"qknap.greedy"}),
    ]:
        command = "greedy" if backend is None else "solve"
        run, names = _imports("-m", "qknap", command, str(path), *rest)
        assert run.returncode == 0, run.stderr
        if "--json" in rest:
            assert json.loads(run.stdout)["stats"]["backend"] == backend
        elif backend is not None:
            assert f"# backend={backend}" in run.stdout.splitlines()
        loaded = names - bare
        assert {"qknap.cli", "qknap.instance_io", "qknap.model"} | runs <= loaded
        unused = {"subprocess", "tempfile", "hashlib", "_hashlib", "platform", "json", "fractions"}
        unused |= {"__future__"}  # no served module postpones its annotations
        unused |= {"qknap.commands", "argparse", "gettext", "locale"}
        unused |= {"dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib"}
        unused |= {"qknap.dominance"}
        unused |= {"qknap.dp", "qknap.ckernel", "qknap.twin", "qknap.greedy"} - runs
        unused |= {"qknap.ckbuild", "qknap.generator"}  # the build is cached; no request generates
        unused |= {"ctypes", "shlex", "sysconfig"}  # a cached extension loads without them
        if "--json" in rest:  # frontier_json imports json when it runs
            assert "json" in names
            unused.remove("json")
        assert loaded & unused == set(), (command, path.name, rest)


def test_an_unserved_command_loads_only_what_it_runs(data_dir):
    # check --witness, enumerate, gen and bench need no dataclass or typing
    # machinery, and only gen and bench the instance generator. -S keeps a
    # site .pth file, which may import such a module first, from hiding an
    # import of it here.
    env = {**os.environ, "PYTHONPATH": str(Path(qknap.dp.__file__).parents[1])}
    table1 = str(data_dir / "table1.qknap")
    unused = {"dataclasses", "inspect", "ast", "dis", "typing", "__future__"}
    for argv in [
        ["check", table1, "--a", "1,4", "--b", "2,3", "--witness"],
        ["enumerate", table1],
        ["gen", "--n", "5", "--k", "2", "--ratio", "1/2", "--wmax", "4", "--seed", "1"],
        ["bench", "--n", "4,40", "--k", "3", "--capacity", "60", "--wmax", "9", "--seeds", "1"],
    ]:
        run, names = _imports("-S", "-m", "qknap", *argv, env=env)
        assert run.returncode == 0, run.stderr
        assert "qknap.commands" in names, argv
        assert names & unused == set(), argv
        assert ("qknap.generator" in names) == (argv[0] in {"gen", "bench"}), argv


@pytest.mark.parametrize("mode", ["r", "w"])
def test_a_greedy_request_imports_no_enum(data_dir, mode):
    # A guarantee is the word printed for it. -S keeps a site .pth file, which
    # may import enum first, from hiding an import of it here.
    env = {**os.environ, "PYTHONPATH": str(Path(qknap.dp.__file__).parents[1])}
    run, names = _imports("-S", "-m", "qknap", "greedy", str(data_dir / "table1.qknap"), mode, env=env)
    assert run.returncode == 0, run.stderr
    assert "qknap.greedy" in names
    assert "enum" not in names