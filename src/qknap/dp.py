"""Exact frontier computation by dynamic programming over label sets.

The solver sweeps the items one by one. Row i of the DP is one list of
labels reachable with the first i items swept: each label is a rank
cardinality vector in suffix-sum form and a weight. A label covers
another if its vector is at least as large in every level and, for
equal vectors, if it is the lighter. Cell (i, x), the frontier of budget
x, is the row's labels of weight at most x that no such label covers.
Reported cells never include the empty selection's all-zero label.

A label's witness follows from its counts c, as in the paper's
level-major greedy: the lightest subsets with c_j items of each level j
take the c_j lightest level-j items, and the lexicographically smallest
id tuple among them breaks weight ties by id. So in cell (i, x) the
label with counts c has as its witness the c_j lightest level-j items
among the first i swept, ties by id, and two labels of equal vector and
weight have one witness: the sweep keeps the first it meets.

A solve reports cell (n, W) only, so it drops the items heavier than W
and sweeps the rest heaviest first (a stable sort: equal weights keep
input order). Row i is sorted by clamped weight max(weight, t), where
t = max(0, W - rem) and rem is the weight of the items still to come: a
label of weight at most t can take any subset of them and still fit W,
so below t only its vector counts, then the tie rule (Toth's reduction).
Heavy items first make t rise soonest. The last row has t = W, so it is
cell (n, W) itself, plus the zero label when that cell is empty. With
``keep_matrix`` every row has t = 0 and the items are swept in input
order; cell (i, x) is read from row i for every x <= W: it holds the
labels of weight at most x whose exit is above x.

A row is a run of uint64 words, one record of R = ks + 2 words per
label, laid out by ``_lanes`` and by it alone: the ks lane words, the
weight, then the exit, the clamped weight at which the label leaves the
frontier, or W + 1 if it does not. The lane words hold the k suffix
sums, which make dominance a plain componentwise comparison. Each sum
sits in a lane of its own, ``lane`` bits wide, whose top bit, its
guard, stays clear. With H the mask of a word's guard bits, a >= b
holds in every lane of a word iff

    ((a | H) - b) & H == H

because each lane computes a_j + 2**(lane - 1) - b_j, which is never
negative: no borrow crosses into the next lane, and the guard survives
exactly where a_j >= b_j. A dominance test is one subtract-and-mask per
lane word, and equal vectors have equal words.

Extending a label by an item adds the item's record, which ``solve``
builds once per item: one in the low bit of each of the first level
lanes, the item's weight, and an exit of 0, which the merge overwrites.
The add is word by word and carries out of no word: a lane sum stays at
most n under its guard, and a weight at most W < 2**63 plus the item's,
also below 2**63. Extensions heavier than W are dropped.

One sweep merges every row, in two implementations that give the same
rows and counters: a C extension (``_rowkernel.c``, shipped beside this
module) and its pure-Python twin ``qknap.twin.sweep``, which follows it
step for step. A solve of at least ``_KERNEL_MIN_CELLS`` cells imports
``qknap.ckernel``, which loads the cached extension and imports
``qknap.ckbuild`` to build it only when no build is cached; smaller
solves, and every solve when it cannot be had, import ``qknap.twin``
and take the twin. So each solve compiles only the sweep it runs.
``SolveStats.backend`` names the kernel that ran. C checks its inputs,
grows its own buffers and may raise.

``solve`` builds the item records and the rows' t once, and the sweep
takes them with ks, the guard mask H of a lane word, W and a keep-rows
flag, and returns the rows as bytes (every row with the flag, else the
last), the comparisons and max_cell. Row 0 is the zero label, every
word 0, and each later row is merged from the one before: the
candidates are its records, A, and their extensions by the item, B,
whose records heavier than W form a suffix of B and are dropped. Both
runs are sorted by the next row's clamped weight, and the merge takes
the candidates in that order, A first on a tie. Each candidate is
compared with the prefix frontier F: the kept labels that no other kept
label covers. On equal vectors the lighter covers, and on equal weights
the label already in F. A covered candidate is dropped, and its scan
ends there: F is an antichain, so it covers none of F. Each candidate
placed gets exit W + 1, which no clamped weight reaches: it is in F. A
kept candidate of clamped weight w joins F and takes out of it every
label it covers, writing w into that label's exit, so the merge alone
decides what covers what. After it the row keeps the labels whose exit
is above their own clamped weight: one covered at its own clamped
weight is in no cell. The comparisons count the candidate x F pairs the
scans take up, an upper bound on the dominance tests run. max_cell is
the largest size of F when the clamped weight changes or a row ends,
which is the largest cell (i, x), x >= t, of any row i. The sweep knows
nothing of the zero label: ``solve`` leaves it out of max_cell and of
the reported labels. Every nonzero label covers it, so F keeps it only
while no item swept so far fits, and then holds nothing else: max_cell
counts it only when the frontier is empty, and ``solve`` checks that
once, after the sweep.
"""

import math
import time
from array import array
from itertools import chain, groupby
from operator import attrgetter, sub

from .model import FrontierResult, Instance, Label, SolveStats, canonical_key

__all__ = ["label_bound", "solve"]

# Solves of at least this many cells (n * (W + 1)) run the C sweep. On a
# 2,440-cell instance (n=40, k=3, wmax=9, W=60) the Python twin takes
# 1.5 us per cell and C 0.13 us (in-process, best of 20); in a new process
# that finds no bytecode, importing qknap.ckernel and loading the cached
# extension takes 1.4 ms (median of 31 processes, quartiles 1.3-2.0 ms),
# and a build, cached for later processes, 0.29 s (2-CPU x86-64 Linux, gcc
# 12.2, Python 3.11.7). The threshold keeps small solves, such as a 44-cell cold
# start or the benchmark's 364-658-cell batch instances, on the twin, so they
# never start the compiler; the 2,440-cell instance and the dense
# (4,700-5,600 cells) and wide (20,200) workloads run C.
_KERNEL_MIN_CELLS = 2_000


def label_bound(k: int, i: int) -> int:
    """Upper bound on a cell's nonzero label count: C(k+i, i) - 1, exactly."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    return math.comb(k + i, i) - 1


def solve(inst: Instance, keep_matrix: bool = False) -> FrontierResult:
    """Compute all non-dominated rank cardinality vectors of the instance.

    Returns the final label set in canonical order, each label carrying
    its minimal-weight witness subset. With ``keep_matrix`` every cell
    of the DP table is retained and materialized (memory grows with
    n*W; meant for small instances and debugging). Without it the
    capacity is first clamped to the total weight, so ``stats.cells``
    counts n * (min(W, total weight) + 1) cells, though no row holds a
    record per cell: each row holds its labels, clamped below the weight
    from which the items still to come can reach W, heaviest item first,
    and ``comparisons`` and ``max_cell`` count the merges of those rows.
    ``stats.wall_time`` starts once the row kernel is loaded, or built,
    so it times the sort, the sweep and the decoding of the labels only.
    """
    n, k, W = len(inst.items), inst.k, inst.capacity
    if not keep_matrix:
        W = min(W, sum(item.weight for item in inst.items))
    cells = n * (W + 1)
    kernel, backend = _kernel(cells)  # loaded, or built, before the clock starts
    t0 = time.perf_counter()
    if keep_matrix:  # cells of input prefixes, unclamped: all items in input order
        items = inst.items
    else:  # heaviest first; the sort is stable, so equal weights keep input order
        fit = [item for item in inst.items if item.weight <= W]
        items = sorted(fit, key=attrgetter("weight"), reverse=True)
    rem = sum(item.weight for item in items)
    ks, H, _, where = lanes = _lanes(k, n)
    recs, ts = array("Q", [0]) * (len(items) * (ks + 2)), array("Q")  # what extending by each adds
    for o, item in zip(range(0, len(recs), ks + 2), items):
        rem -= item.weight
        # rem is now the weight of the items after this one: they lift any label below W - rem to W
        ts.append(0 if keep_matrix else max(0, W - rem))
        for q, shift in where[: item.level]:
            recs[o + q] += 1 << shift
        recs[o + ks] = item.weight
    rows, comparisons, max_cell = kernel(recs, ts, ks, H, W, keep_matrix)
    # row i holds the labels of the first i items swept; without a matrix the
    # last row, clamped at W, is cell (n, W)
    matrix = tuple(_cells(r, W, lanes, items[:i]) for i, r in enumerate(rows)) if keep_matrix else None
    labels = matrix[-1][-1] if keep_matrix else _canonical(_labels(rows[-1], lanes, items))
    if not labels:  # the frontiers held only the zero label, which does not count
        max_cell = 0
    stats = SolveStats(cells, max_cell, comparisons, time.perf_counter() - t0, backend)
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _kernel(cells: int):
    """``(sweep, backend)``: C at or above ``_KERNEL_MIN_CELLS`` cells when it loads, else the twin."""
    if cells >= _KERNEL_MIN_CELLS:
        from .ckernel import _load_row_kernel

        kernel = _load_row_kernel()[0]
        if kernel is not None:
            return kernel, "c-kernel"
    from .twin import sweep

    return sweep, "python"


def _labels(row, lanes, items) -> list[tuple[int, Label]]:
    """The labels of a row's bytes in row order, zero label skipped: ``(exit, Label)``.

    ``lanes`` is the record layout ``_lanes(k, n)``. ``items`` are the
    items swept into the row, in any order. Each witness takes a prefix
    of each level's items sorted by (weight, id), as ``qknap.dp``
    describes.
    """
    ks, _, mask, where = lanes
    row, out, levels = memoryview(row).cast("Q"), [], [[] for _ in where]
    for item in sorted(items, key=attrgetter("weight", "id")):
        levels[item.level - 1].append(item.id)
    for i in range(0, len(row), ks + 2):
        weight = row[i + ks]
        if weight == 0:
            continue
        sums = [row[i + q] >> shift & mask for q, shift in where]
        sums.append(0)
        counts = tuple(map(sub, sums, sums[1:]))
        witness = tuple(sorted(chain.from_iterable(lv[:c] for lv, c in zip(levels, counts))))
        out.append((row[i + ks + 1], Label(counts, weight, witness)))
    return out


def _cells(row, W: int, lanes, items) -> tuple[tuple[Label, ...], ...]:
    """Reported cells 0..W of an unclamped row (t = 0), each in canonical order.

    The row is sorted by weight, and cell x holds its labels of weight
    at most x and exit above x. Each exit up to W is the weight of a
    label in the row, so cell x is cell x - 1, less the labels that
    exit at x, plus those of weight x.
    """
    cells, front = [()], []  # only the zero label, never reported, weighs 0
    for weight, new in groupby(_labels(row, lanes, items), key=lambda p: p[1].weight):
        front = [f for f in front if f[0] > weight] + list(new)
        cells += [cells[-1]] * (weight - len(cells)) + [_canonical(front)]
    return tuple(cells + [cells[-1]] * (W + 1 - len(cells)))


def _canonical(labels) -> tuple[Label, ...]:
    """The Labels of ``(exit, Label)`` pairs, in canonical order."""
    return tuple(sorted((lab for _, lab in labels), key=canonical_key))


def _lanes(k: int, n: int) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Layout of a label's record, for k levels and n items: ``(ks, H, mask, where)``.

    A record is R = ks + 2 uint64 words:

    - words 0..ks-1, the lane words, hold the k suffix sums. Sum j sits
      in a lane of lane = n.bit_length() + 1 bits, lane j % per of word
      j // per, at bit (j % per) * lane, with per = 64 // lane lanes to a
      word, so ks = ceil(k / per) and no lane straddles two words. A sum
      never exceeds n, so the top bit of each lane, its guard, stays
      clear. H is a lane word's guard mask, mask one lane's, and where[j]
      the (word, shift) of sum j;
    - word ks holds the weight, and word ks + 1 the exit.

    ``solve`` encodes each item's record with this table and
    ``_labels`` decodes each reported label with it.
    """
    lane = n.bit_length() + 1
    per = 64 // lane
    ks = -(-k // per)
    H = sum(1 << (i * lane + lane - 1) for i in range(per))
    where = [(j // per, j % per * lane) for j in range(k)]
    return ks, H, (1 << lane) - 1, where

