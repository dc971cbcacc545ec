"""Exact frontier computation by dynamic programming over label sets.

The solver sweeps the items one by one. Row i of the DP is one list of
labels reachable with the first i items swept: each label carries a rank
cardinality vector in suffix-sum form, its weight and one witness
subset. A label covers another if its vector is at least as large in
every level and, for equal vectors, if it is the lighter, then the one
with the lexicographically smaller id tuple. Cell (i, x), the frontier
of budget x, is the row's labels of weight at most x that no such label
covers. Reported cells never include the empty selection's all-zero
label.

A solve reports cell (n, W) only, so it drops the items heavier than W
and sweeps the rest heaviest first (a stable sort: equal weights keep
input order). Row i is sorted by clamped weight max(weight, t), where
t = max(0, W - rem) and rem is the weight of the items still to come: a
label of weight at most t can take any subset of them and still fit W,
so below t only its vector counts, then the tie rule (Toth's reduction).
Heavy items first make t rise soonest. The last row has t = W, so it is
cell (n, W) itself, plus the zero label when that cell is empty. With
``keep_matrix`` every row has t = 0 and the items are swept in input
order; cell (i, x) is read from row i for every x <= W, where a label
enters at its weight and leaves at the weight of the lightest label
that covers it.

A row is one stdlib ``array`` of typecode "Q" (uint64), one record of R
words per label, laid out by ``_lanes`` and by it alone: the lane words,
the weight, then the witness words.

The lane words hold the k suffix sums, which make dominance a plain
componentwise comparison. Each sum sits in a lane of its own, ``lane``
bits wide, whose top bit, its guard, stays clear. With H the mask of a
word's guard bits, a >= b holds in every lane of a word iff

    ((a | H) - b) & H == H

because each lane computes a_j + 2**(lane - 1) - b_j, which is never
negative: no borrow crosses into the next lane, and the guard survives
exactly where a_j >= b_j. A dominance test is one subtract-and-mask per
lane word, and equal vectors have equal words.

The witness words hold a bit set over the items ranked by ascending id,
the lowest rank in the top bit of word 0. Equal-vector, equal-weight
witnesses have the same size, and the one with the smaller sorted id
tuple holds the least id of their symmetric difference, so its words
compare larger as unsigned integers, word 0 first. That settles every
tie in O(n/64), whatever the order in which items are swept.

Extending a label by an item adds the item's record, which ``solve``
builds once per item: one in the low bit of each of the first level
lanes, the item's weight, and its rank's witness bit. The add is word by
word and carries out of no word: a lane sum stays at most n under its
guard, a weight at most W < 2**63 plus the item's, also below 2**63,
and the witness bit is clear in every label of the previous row,
because each item is swept once. Extensions heavier than W are dropped.

One row kernel merges a row, in two implementations that give the same
labels and counters: C (``_rowkernel.c``, shipped beside this module)
and its pure-Python twin ``_row_kernel_py``, which follows it step for
step. The first solve of at least ``_KERNEL_MIN_CELLS`` cells compiles
the C kernel with ``$CC`` (else ``cc``) into ``$XDG_CACHE_HOME/qknap``
(else ``~/.cache/qknap``), under a name keyed by the source, the
platform, the compiler command and the flags, and loads it through
ctypes. The name is ``importlib.util.source_hash`` of that key, which
is keyed by the interpreter's magic number, so each Python version
builds its own copy. Later processes load the cached file, which takes
ctypes and importlib.util (which ``python -m`` has already imported)
only: the compiler toolchain (shutil, subprocess, tempfile) is
imported only to build, and a compiler that is not there is found
missing before anything is written. A build compiles into a temporary
directory inside the cache and is renamed into place. Smaller solves,
and every solve when no compiler is found, the compiler fails, or an
OSError, a missing home directory or a ``$CC`` that ``shlex`` cannot
split stops the build or the load, take the Python twin.
``SolveStats.backend`` names the kernel that ran.

Both kernels take a row, the item's record, ks, the guard mask H of a
lane word, the next row's t and W, and return the next row, the
comparisons and max_cell: one row in, one row out. The candidates are
the row's records, A, and their extensions by the item, B, whose
records heavier than W form a suffix of B and are dropped. Both runs
are sorted by the next row's clamped weight, and the kernels take the
candidates in that order, A first on a tie. Each candidate is compared
with the prefix frontier F: the kept labels that no other kept label
covers. A covered candidate is dropped, and its scan ends there: F is
an antichain, so it covers none of F. A kept candidate joins F and
takes out of it every label it covers; one at its own clamped weight is
covered in every cell it would be in, so it is marked dead by a weight
of W + 1, which no label has, and the dead leave the row after the
sweep. The comparisons count the candidate x F pairs the scans take up,
an upper bound on the dominance tests run. max_cell is the largest
size of F when the clamped weight changes or the sweep ends, which is
the largest cell (i, x), x >= t, of the next row i. The kernels know nothing of the
zero label: ``solve`` leaves it out of max_cell and of the reported
labels. Every nonzero label covers it, so F keeps it only while no item
swept so far fits, and then holds nothing else: the kernels' max_cell
counts it only when the frontier is empty, and ``solve`` checks that
once, after the sweep.

The C kernel gets the buffers' addresses as bare pointers. It reads the
m = len(row) / R records of the row and the item's record, and writes
at most 2m records into the next row and at most 2m record numbers into
F, which its ctypes wrapper allocates and then trims the next row to
what C wrote. C allocates nothing, indexes by no value it reads from a
record, and cannot fail: the wrapper refuses, with ValueError, any
buffer or scalar that does not fit before any C code runs.
"""

from __future__ import annotations

import functools
import math
import os
import shlex
import sys
import time
from array import array
from itertools import accumulate, groupby
from operator import add, attrgetter, sub
from pathlib import Path

from .model import FrontierResult, Instance, Label, SolveStats, canonical_key

__all__ = ["label_bound", "solve"]

# Solves of at least this many cells (n * (W + 1)) run the C kernel. On a
# 2,440-cell instance (n=40, k=3, wmax=9, W=60) the Python twin takes
# 1.3-1.9 us per cell, the C kernel 0.08-0.14 us, loading a cached build in a
# new process 1.0-1.2 ms, and a build, cached for later processes, 0.13-0.18 s
# (2-vCPU VM, gcc 12.2, Python 3.11). The threshold keeps small solves, such
# as a 44-cell cold start or the benchmark's 364-658-cell batch instances, on
# the twin, so they never start the compiler; the 2,440-cell instance and the
# dense (4,700-5,600 cells) and wide (20,200) workloads run C.
_KERNEL_MIN_CELLS = 2_000
_CFLAGS = ("-O2", "-shared", "-fPIC")


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
    """
    t0 = time.perf_counter()
    n, k, W = len(inst.items), inst.k, inst.capacity
    if keep_matrix:  # cells of input prefixes, unclamped: all items in input order
        items, clamps = inst.items, [0] * n
    else:
        W = min(W, sum(item.weight for item in inst.items))
        fit = [item for item in inst.items if item.weight <= W]
        # heaviest first; the sort is stable, so equal weights keep input order
        items = sorted(fit, key=attrgetter("weight"), reverse=True)
        # row i clamps at W - (weight of the items after the i-th), which lift any label below to W
        after = accumulate([item.weight for item in items[:0:-1]], initial=0)
        clamps = [max(0, W - r) for r in after][::-1]
    stats = SolveStats(cells=n * (W + 1), backend="c-kernel")
    kernel = _load_row_kernel()[0] if stats.cells >= _KERNEL_MIN_CELLS else None
    if kernel is None:
        kernel, stats.backend = _row_kernel_py, "python"
    ids = sorted(item.id for item in inst.items)
    rank = {iid: r for r, iid in enumerate(ids)}
    ks, R, H, _, where = lanes = _lanes(k, n)
    row = _zeros("Q", R)  # row 0: the all-zero label (empty subset)
    rows = [row]
    for item, t in zip(items, clamps):
        rec = _zeros("Q", R)  # what extending a label by the item adds
        for q, shift in where[: item.level]:
            rec[q] += 1 << shift
        r = rank[item.id]
        rec[ks], rec[ks + 1 + r // 64] = item.weight, 1 << 63 - r % 64
        row, comps, mc = kernel(row, rec, ks, H, t, W)
        stats.comparisons += comps
        stats.max_cell = max(stats.max_cell, mc)
        if keep_matrix:
            rows.append(row)
    matrix = tuple(_cells(r, W, lanes, ids) for r in rows) if keep_matrix else None
    # without a matrix the last row, clamped at W, is cell (n, W)
    labels = matrix[-1][-1] if keep_matrix else _canonical(_labels(row, lanes, ids))
    if not labels:  # the frontiers held only the zero label, which does not count
        stats.max_cell = 0
    stats.wall_time = time.perf_counter() - t0
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _zeros(typecode: str, size: int) -> array:
    return array(typecode, [0]) * size


def _labels(row, lanes, ids: list[int]) -> list[tuple[int, Label]]:
    """The row's labels in row order, zero label skipped: ``(lane words, Label)``.

    ``lanes`` is the record layout ``_lanes(k, n)``; the lane words come
    as one integer, word q at bit 64q. ``ids`` lists the item ids in rank
    order, which is ascending, so each witness comes out sorted.
    """
    ks, R, _, mask, where = lanes
    out = []
    for i in range(0, len(row), R):
        weight = row[i + ks]
        if weight == 0:
            continue
        items = []
        for q, word in enumerate(row[i + ks + 1 : i + R]):
            while word:
                top = word.bit_length() - 1
                items.append(ids[64 * q + 63 - top])
                word ^= 1 << top
        sums = [row[i + q] >> shift & mask for q, shift in where]
        sums.append(0)
        lab = Label(tuple(map(sub, sums, sums[1:])), weight, tuple(items))
        out.append((sum(row[i + q] << 64 * q for q in range(ks)), lab))
    return out


def _cells(row, W: int, lanes, ids: list[int]) -> tuple[tuple[Label, ...], ...]:
    """Reported cells 0..W of an unclamped row (t = 0), each in canonical order.

    The row is sorted by weight and holds one label per vector, so cell x
    is cell x - 1 plus the labels of weight x, less those they cover.
    """
    HH = sum(lanes[2] << 64 * q for q in range(lanes[0]))
    cells, front = [()], []  # only the zero label, never reported, weighs 0
    for weight, new in groupby(_labels(row, lanes, ids), key=lambda p: p[1].weight):
        for s, lab in new:
            front = [f for f in front if ((s | HH) - f[0]) & HH != HH] + [(s, lab)]
        cells += [cells[-1]] * (weight - len(cells)) + [_canonical(front)]
    return tuple(cells + [cells[-1]] * (W + 1 - len(cells)))


def _canonical(labels) -> tuple[Label, ...]:
    """The Labels of ``(lane words, Label)`` pairs, in canonical order."""
    return tuple(sorted((lab for _, lab in labels), key=canonical_key))


def _lanes(k: int, n: int) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """Layout of a label's record, for k levels and n items: ``(ks, R, H, mask, where)``.

    A record is R = ks + 1 + ceil(n/64) uint64 words:

    - words 0..ks-1, the lane words, hold the k suffix sums. Sum j sits
      in a lane of lane = n.bit_length() + 1 bits, lane j % per of word
      j // per, at bit (j % per) * lane, with per = 64 // lane lanes to a
      word, so ks = ceil(k / per) and no lane straddles two words. A sum
      never exceeds n, so the top bit of each lane, its guard, stays
      clear. H is a lane word's guard mask, mask one lane's, and where[j]
      the (word, shift) of sum j;
    - word ks holds the weight;
    - the witness words after it hold a bit set over the items ranked by
      ascending id: rank r is bit 63 - r % 64 of word ks + 1 + r // 64.

    ``solve`` encodes each item's record with this table and
    ``_labels`` decodes each reported label with it.
    """
    lane = n.bit_length() + 1
    per = 64 // lane
    ks = -(-k // per)
    H = sum(1 << (i * lane + lane - 1) for i in range(per))
    where = [(j // per, j % per * lane) for j in range(k)]
    return ks, ks + 1 + -(-n // 64), H, (1 << lane) - 1, where


def _row_kernel_py(L, item, ks, H, t, W):
    """Pure-Python twin of the C row kernel (``_rowkernel.c``).

    Same arguments and results as the C kernel's wrapper: ``(next_row,
    comparisons, max_cell)``. It reads a label's ks lane words as one
    integer, word q at bit 64q, and tests dominance on that with the guard
    bits of every word in ``HH``: no borrow crosses a lane, so the test
    holds across words as it does within one, and extending adds ``INC``.
    """
    R, wt = len(item), item[ks]
    INC = sum(v << 64 * q for q, v in enumerate(item[:ks]))
    HH = sum(H << 64 * q for q in range(ks))
    sums = L[0::R].tolist()
    for q in range(1, ks):
        sums = [v | w << 64 * q for v, w in zip(sums, L[q::R])]
    A = [(s, L[i : i + R].tolist()) for s, i in zip(sums, range(0, len(L), R))]
    B = [(s + INC, list(map(add, a, item))) for s, a in A if a[ks] + wt <= W]
    kept, F, comparisons, max_cell, last = [], [], 0, 0, 0
    for s, c in sorted(A + B, key=lambda cand: max(cand[1][ks], t)):  # stable: A first on a tie
        w = max(c[ks], t)
        if w != last:
            max_cell, last = max(max_cell, len(F)), w
        rest = []
        for f in F:
            comparisons += 1
            sf, r = f
            if sf == s:  # equal vectors: the lighter, then the larger witness words
                if r[ks] < c[ks] or (r[ks] == c[ks] and r[ks + 1 :] > c[ks + 1 :]):
                    break
            elif ((sf | HH) - s) & HH == HH:
                break  # F is an antichain: a c that one f covers covers none of it
            elif ((s | HH) - sf) & HH != HH:
                rest.append(f)
                continue
            if max(r[ks], t) == w:
                r[ks] = W + 1  # dead: covered at its own clamped weight, and no label weighs W + 1
        else:
            F = rest + [(s, c)]
            kept.append(c)
    L_out = array("Q", [v for c in kept if c[ks] <= W for v in c])  # the dead leave
    return L_out, comparisons, max(max_cell, len(F))


# --------------------------------------------------------------------------
# Loading the C kernel.


def _compiler() -> list[str]:
    """The command that builds the row kernel: ``$CC``, else ``cc``."""
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


@functools.cache
def _load_row_kernel():
    """``(kernel, reason)``: the C row kernel, compiled on first use.

    ``kernel`` is None when it cannot be had, and every solve then runs
    ``_row_kernel_py``; ``reason`` names the shared object that loaded,
    or why none did: no compiler found, the compiler failed (with the
    tail of its stderr), or ``no C row kernel: ...`` with the OSError
    met on the way, the RuntimeError of a home directory that cannot be
    found, or the ValueError of a ``$CC`` that ``shlex`` cannot split.
    ``_load_row_kernel.cache_clear()`` makes the next call try again.
    """
    # Imported here so that solves below the kernel threshold never pay for them;
    # the build's modules are imported only when there is something to build.
    import ctypes
    import importlib.util

    source = Path(__file__).with_name("_rowkernel.c")
    try:
        cc = _compiler()
        # A build for another compiler, such as a sanitizer's, must not be loaded.
        key = "\0".join((sys.platform, os.uname().machine, *cc, *_CFLAGS)).encode()
        key += b"\0" + source.read_bytes()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qknap"
        lib = cache / f"rowkernel-{importlib.util.source_hash(key).hex()}.so"
        if not lib.exists():
            import shutil

            if shutil.which(cc[0]) is None:
                return None, f"no C compiler {shlex.join(cc)} to build {lib.name}"
            import subprocess
            import tempfile

            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = os.path.join(tmp, lib.name)
                argv = [*cc, *_CFLAGS, "-o", built, str(source)]
                run = subprocess.run(argv, capture_output=True, text=True)
                if run.returncode != 0:
                    err = run.stderr.strip()[-400:]
                    return None, f"{shlex.join(cc)} failed (exit {run.returncode}): {err}"
                os.replace(built, lib)  # atomic on one filesystem: none loads a half-written file
        fn = ctypes.CDLL(str(lib)).qknap_row_kernel
    # RuntimeError: Path.home() finds no home; ValueError: a $CC shlex cannot split
    except (OSError, RuntimeError, ValueError) as exc:
        return None, f"no C row kernel: {exc}"
    fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 3 + [ctypes.c_uint64] * 3
    fn.restype = None

    def kernel(L, item, ks, H, t, W):
        # The C side reads and writes through bare pointers, unchecked: len(L) // R
        # records of R = len(item) words in, up to twice that many out.
        if not (
            all(isinstance(b, array) for b in (L, item))
            and L.typecode + item.typecode == "QQ"
            and 0 <= ks < (R := len(item)) - 1  # the weight, then at least one witness word
            and len(L) % R == 0
            and 1 <= item[ks] < 1 << 63  # added to a weight <= W, it carries out of no word
            and 0 <= t <= W < 1 << 63  # W + 1 marks the dead
        ):
            raise ValueError("row kernel buffers do not fit the row")
        m = len(L) // R
        L_o, F = _zeros("Q", 2 * len(L)), _zeros("q", 2 * m)
        out = array("q", [0, 0, 0])  # records kept, comparisons, max_cell
        fn(*(b.buffer_info()[0] for b in (L, item, L_o, F, out)), m, R, ks, H, t, W)
        kept, comparisons, max_cell = out
        del L_o[kept * R :]
        return L_o, comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"
