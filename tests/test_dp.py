import random
import shutil
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qknap.dp
from helpers import instances
from qknap import (
    GeneratorParams,
    Instance,
    Item,
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
        k=4, capacity=2, items=tuple(replace(it, weight=it.weight + 2) for it in table1.items)
    )
    for min_cells in (1, 10**12):  # C kernel forced on, then off
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            for inst in (zero, heavy):
                res = solve(inst)
                assert res.labels == ()
                # the zero label is not reported, so it never counts toward a cell's size
                assert res.stats.max_cell == 0, (min_cells, inst.capacity)


def test_solve_empty_instance():
    assert solve(Instance(k=2, capacity=5, items=())).labels == ()


def test_capacity_beyond_the_total_weight_is_clamped():
    inst = generate_instance(GeneratorParams(n=8, k=1, weight_max=5, seed=3, capacity=1))
    n, total = len(inst.items), sum(item.weight for item in inst.items)
    at = solve(replace(inst, capacity=total))
    # unclamped, this solve would allocate about 100 MB, not fail
    beyond = solve(replace(inst, capacity=total + 10**6))
    assert beyond.labels == at.labels
    assert beyond.stats.cells == at.stats.cells == n * (total + 1)
    # a matrix shows every column up to the capacity
    matrix = solve(replace(inst, capacity=total + 3), keep_matrix=True)
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
    with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", 1):
        assert solve(inst).labels == want


@settings(deadline=None, max_examples=60)
@given(instances(max_n=9, max_k=4, max_weight=4, max_capacity=16), st.randoms(use_true_random=False))
def test_item_order_does_not_change_the_answer(inst, rng):
    shuffled = list(inst.items)
    rng.shuffle(shuffled)
    orders = [replace(inst, items=inst.items[::-1]), replace(inst, items=tuple(shuffled))]
    # every solve sweeps items in input order; the witness rule must not depend on it
    want = solve(inst, keep_matrix=True).labels
    for min_cells in (1, 10**12):  # C kernel forced on, then off
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            assert solve(inst).labels == want
            for other in orders:
                assert solve(other).labels == want


@settings(deadline=None, max_examples=40)
@given(instances(max_n=8, max_k=3, max_weight=5, max_capacity=12))
def test_cells_are_filter_stable_and_bounded(inst):
    for min_cells in (1, 10**12):  # C kernel forced on, then off
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            res = solve(inst, keep_matrix=True)
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
    for min_cells in (1, 10**12):  # C kernel forced on, then off
        with mock.patch.object(qknap.dp, "_KERNEL_MIN_CELLS", min_cells):
            res = solve(inst, keep_matrix=True)
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
]

# The shapes above number items 1..n in input order, so each new item has the
# largest id so far. These tie-heavy shapes carry ids in a seeded shuffle
# instead: (shape, shuffle seed).
_SHUFFLED_ID_SHAPES = [
    (GeneratorParams(n=24, k=3, weight_max=3, seed=8, capacity=30), 1),
    (GeneratorParams(n=30, k=2, weight_max=2, seed=9, capacity=25), 2),
    (GeneratorParams(n=40, k=2, weight_max=1, seed=10, capacity=12), 3),  # all ties
    (GeneratorParams(n=24, k=4, weight_max=3, seed=11, capacity=30), 4),
]


def _path_instance(shape):
    if isinstance(shape, GeneratorParams):
        return generate_instance(shape)
    params, seed = shape
    inst = generate_instance(params)
    ids = [item.id for item in inst.items]
    random.Random(seed).shuffle(ids)
    return replace(inst, items=tuple(replace(item, id=i) for item, i in zip(inst.items, ids)))


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


needs_cc = pytest.mark.skipif(
    shutil.which(qknap.dp._compiler()[0]) is None,
    reason=f"no C compiler {qknap.dp._compiler()[0]!r} to build the row kernel",
)


@needs_cc
@pytest.mark.parametrize("params", _PATH_SHAPES + _SHUFFLED_ID_SHAPES)
def test_c_and_python_kernels_agree(params, monkeypatch):
    kernel, reason = qknap.dp._load_row_kernel()
    assert kernel is not None, reason
    inst = _path_instance(params)
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 10**12)
    ref = solve(inst)
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 1)
    fast = solve(inst)
    assert (ref.stats.backend, fast.stats.backend) == ("python", "c-kernel")
    assert ref.labels == fast.labels
    assert (ref.stats.cells, ref.stats.max_cell, ref.stats.comparisons) == (
        fast.stats.cells,
        fast.stats.max_cell,
        fast.stats.comparisons,
    )


@needs_cc
def test_row_kernel_compiles_without_warnings(tmp_path):
    source = Path(qknap.dp.__file__).with_name("_rowkernel.c")
    argv = [*qknap.dp._compiler(), "-Wall", "-Wextra", "-Werror", *qknap.dp._CFLAGS]
    run = subprocess.run(
        [*argv, "-o", str(tmp_path / "rowkernel.so"), str(source)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def _kernel_args():
    """Arguments that fit: row 0 of a solve with k=2, nw=1, W=3 (4 records of 4 words)."""
    return dict(
        L=array("Q", [0]) * 16,
        off=array("q", range(5)),
        k=2,
        nw=1,
        wt=1,
        level=1,
        rank=0,
    )


def _run_kernel(kernel, L, off, **scalars):
    return kernel((L, off), **scalars)


@needs_cc
@pytest.mark.parametrize(
    "bad",
    [
        dict(L=array("Q", [0]) * 15),
        dict(L=array("q", [0]) * 16),
        dict(off=array("q", [0, 1, 2, 3, 3])),
        dict(rank=64),
        dict(wt=2**64 - 1),  # ctypes passes it to C as -1
        # these pass every check of the wrapper; C must refuse them before it
        # reads or writes outside the row
        dict(L=array("Q", [0]) * 12, off=array("q", [0, 3, 1, 3])),
        dict(L=array("Q", [0]) * 12, off=array("q", [0, 5, 3])),
    ],
    ids=[
        "short-L",
        "signed-L",
        "off-ends-short",
        "rank-beyond-nw-words",
        "weight-beyond-int64",
        "non-monotonic-off",
        "off-beyond-the-row",
    ],
)
def test_c_kernel_refuses_buffers_that_do_not_fit(bad):
    # the C side reads and writes through bare pointers, so bad buffers must be
    # refused before it touches them
    kernel, reason = qknap.dp._load_row_kernel()
    assert kernel is not None, reason
    (L, off), comparisons, max_cell = _run_kernel(kernel, **_kernel_args())
    # the item (weight 1, level 1) dominates the empty subset in every column x >= 1
    assert list(L) == [0, 0, 0, 0] + [1, 0, 1, 1 << 63] * 3
    assert list(off) == [0, 1, 2, 3, 4]
    assert (comparisons, max_cell) == (3, 1)
    (L_py, off_py), *counts = _run_kernel(qknap.dp._row_kernel_py, **_kernel_args())
    assert (L_py, off_py, *counts) == (L, off, comparisons, max_cell)
    with pytest.raises(ValueError, match="do not fit"):
        _run_kernel(kernel, **{**_kernel_args(), **bad})


def test_without_a_compiler_solve_runs_the_python_kernel(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(qknap.dp, "_KERNEL_MIN_CELLS", 1)
    qknap.dp._load_row_kernel.cache_clear()
    try:
        kernel, reason = qknap.dp._load_row_kernel()
        assert kernel is None
        assert "no-such-cc" in reason
        inst = generate_instance(GeneratorParams(n=14, k=3, weight_max=3, seed=1, capacity=18))
        res = solve(inst)
        assert res.stats.backend == "python"
        assert res.labels == enumerate_frontier(inst).labels
    finally:
        # the next call loads the kernel again, in the restored environment
        qknap.dp._load_row_kernel.cache_clear()


@needs_cc
def test_kernel_cache_is_keyed_by_the_compiler(tmp_path, monkeypatch):
    # a build by one compiler, such as a sanitizer's, must never load for another
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    qknap.dp._load_row_kernel.cache_clear()
    try:
        kernel, reason = qknap.dp._load_row_kernel()
        assert kernel is not None, reason
        qknap.dp._load_row_kernel.cache_clear()
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        kernel, reason = qknap.dp._load_row_kernel()
        assert kernel is None
        assert "no-such-cc" in reason
    finally:
        # the next call loads the kernel again, in the restored environment
        qknap.dp._load_row_kernel.cache_clear()


def test_solve_runs_where_numpy_cannot_be_imported(tmp_path, data_dir):
    big = generate_instance(GeneratorParams(n=40, k=3, weight_max=9, seed=1, capacity=60))
    assert solve(big).stats.cells >= qknap.dp._KERNEL_MIN_CELLS
    (tmp_path / "big.qknap").write_text(serialize_instance(big))
    kernel_backend = "c-kernel" if shutil.which(qknap.dp._compiler()[0]) else "python"
    script = (
        'import sys; sys.modules["numpy"] = None; '
        "from qknap.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for path, backend in [(data_dir / "table1.qknap", "python"), (tmp_path / "big.qknap", kernel_backend)]:
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
