"""Exact frontier computation by dynamic programming over label sets.

The solver sweeps the items one by one and, for every capacity budget
x in a window of 0..W, maintains the set of non-dominated rank
cardinality vectors reachable with the items seen so far. Each vector is
carried as a label holding its suffix-sum form, its minimal achieving
weight, and one witness subset. Merging a cell with its extended
predecessor keeps exactly the labels that survive the suffix-sum
dominance test; equal vectors are collapsed to the lighter witness, then
to the lexicographically smallest id tuple. Reported cells never include
the empty selection's all-zero label.

A solve reports cell (n, W) only, so it drops the items heavier than W
and sweeps the rest heaviest first (a stable sort: equal weights keep
input order), and each row keeps only the columns W - rem..W, where rem
is the weight of the items still to come: no lower column can reach W
(Toth's reduction). Heavy items first make rem fall soonest. The last
row is column W alone. With ``keep_matrix`` every cell (i, x) is the
frontier of the first i items of the input within budget x, so that
solve sweeps every item in input order over every column.

A row is two stdlib ``array`` buffers, ``(L, off)``. L (typecode "Q",
uint64) holds one record of R words per label, laid out by ``_lanes``
and by it alone: the lane words, the weight, then the witness words.
Records off[x]:off[x+1] (off of typecode "q") belong to the row's
column x: capacity x past the row's first column.

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
guard, a weight at most its capacity x <= W < 2**63, and the witness bit
is clear in every label of the previous row, because each item is swept
once.

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

Both kernels take a row, the next row's first column lo, ks, the guard
mask H of a lane word and the item's record, and return the next row,
the comparisons and max_cell, the size of the next row's largest
column: one row in, one row out. The kernels number a row's columns
from its first one: the next row holds the input row's columns lo..
re-based to 0, with off[0] == 0. A column x < wt of the input row
carries over, which is right when the row starts at capacity 0, and
``solve`` passes lo >= wt whenever it does not, so no such column
reaches the next row. Per column they extend each label of column
x - wt by the item once, then merge plain records, A (column x) first,
and mark a dominated extension by setting its weight to 0, which no
extension weighs. An A record's scan ends at the first extension that
covers it: the extensions are distinct and non-dominated, so it covers
none of the rest. The comparisons count the A x B record pairs each
column's merge takes up, an upper bound on the dominance tests run. The
kernels know nothing of the zero label: ``solve`` leaves it out of
max_cell, and ``_cell_labels`` out of the reported cells. Every nonzero
label dominates it, so a column keeps it only while no item swept so
far fits there, and then holds nothing else: the kernels' max_cell
counts it only when every column holds it alone, which is when the
frontier is empty, and ``solve`` checks that once, after the sweep. The
C kernel gets the buffers' addresses as bare pointers, so its ctypes
wrapper allocates the next row itself, room for two labels for every
input label, and trims it to what C wrote; C allocates nothing. Since C
reads and writes through those pointers unchecked, the wrapper refuses
any buffer or scalar that does not fit the row before any C code runs,
and C refuses a column's offsets, those below lo too, that decrease or
point past the row when it reaches them: ValueError either way.
"""

from __future__ import annotations

import functools
import math
import os
import shlex
import sys
import time
from array import array
from itertools import accumulate
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
    capacity is first clamped to the total weight, beyond which every
    column repeats the last, so ``stats.cells`` counts n * (min(W, total
    weight) + 1) cells, though the sweep merges only the columns that
    can reach W, heaviest item first: ``comparisons`` and ``max_cell``
    count those.
    """
    t0 = time.perf_counter()
    n, k, W = len(inst.items), inst.k, inst.capacity
    if keep_matrix:  # cells of input prefixes, every column: all items in input order
        items, starts = inst.items, [0] * (n + 1)
    else:
        W = min(W, sum(item.weight for item in inst.items))
        fit = [item for item in inst.items if item.weight <= W]
        # heaviest first; the sort is stable, so equal weights keep input order
        items = sorted(fit, key=attrgetter("weight"), reverse=True)
        # row i holds columns starts[i]..W: those the items after the i-th can lift to W
        rem = accumulate([item.weight for item in reversed(items)], initial=0)
        starts = [max(0, W - r) for r in rem][::-1]
    stats = SolveStats(cells=n * (W + 1), backend="c-kernel")
    kernel = _load_row_kernel()[0] if stats.cells >= _KERNEL_MIN_CELLS else None
    if kernel is None:
        kernel, stats.backend = _row_kernel_py, "python"
    ids = sorted(item.id for item in inst.items)
    rank = {iid: r for r, iid in enumerate(ids)}
    ks, R, H, _, where = lanes = _lanes(k, n)
    # row 0: the all-zero label (empty subset) in every column of its window
    row = _zeros("Q", (W + 1 - starts[0]) * R), array("q", range(W + 2 - starts[0]))
    rows = [row]
    for item, lo, next_lo in zip(items, starts, starts[1:]):
        rec = _zeros("Q", R)  # what extending a label by the item adds
        for q, shift in where[: item.level]:
            rec[q] += 1 << shift
        r = rank[item.id]
        rec[ks], rec[ks + 1 + r // 64] = item.weight, 1 << 63 - r % 64
        row, comps, mc = kernel(row, next_lo - lo, ks, H, rec)
        stats.comparisons += comps
        stats.max_cell = max(stats.max_cell, mc)
        if keep_matrix:
            rows.append(row)
    labels = _cell_labels(row, W - starts[-1], lanes, ids)
    if not labels:  # every column held only the zero label, which does not count
        stats.max_cell = 0
    matrix = None
    if keep_matrix:
        matrix = tuple(tuple(_cell_labels(r, x, lanes, ids) for x in range(W + 1)) for r in rows)
    stats.wall_time = time.perf_counter() - t0
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _zeros(typecode: str, size: int) -> array:
    return array(typecode, [0]) * size


def _cell_labels(row, x: int, lanes, ids: list[int]) -> tuple[Label, ...]:
    """Reported view of column x of a row: zero label stripped, canonical order.

    ``lanes`` is the record layout ``_lanes(k, n)``. ``ids`` lists the
    item ids in rank order, which is ascending, so each witness comes out
    sorted.
    """
    L, off = row
    ks, R, _, mask, where = lanes
    out = []
    for i in range(off[x] * R, off[x + 1] * R, R):
        weight = L[i + ks]
        if weight == 0:
            continue
        items = []
        for q, word in enumerate(L[i + ks + 1 : i + R]):
            while word:
                top = word.bit_length() - 1
                items.append(ids[64 * q + 63 - top])
                word ^= 1 << top
        sums = [L[i + q] >> shift & mask for q, shift in where]
        sums.append(0)
        out.append(Label(tuple(map(sub, sums, sums[1:])), weight, tuple(items)))
    out.sort(key=canonical_key)
    return tuple(out)


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
    ``_cell_labels`` decodes each reported label with it.
    """
    lane = n.bit_length() + 1
    per = 64 // lane
    ks = -(-k // per)
    H = sum(1 << (i * lane + lane - 1) for i in range(per))
    where = [(j // per, j % per * lane) for j in range(k)]
    return ks, ks + 1 + -(-n // 64), H, (1 << lane) - 1, where


def _row_kernel_py(row, lo, ks, H, item):
    """Pure-Python twin of the C row kernel (``_rowkernel.c``).

    Same arguments and results as the C kernel's wrapper: ``(next_row,
    comparisons, max_cell)``. It reads a label's ks lane words as one
    integer, word q at bit 64q, and tests dominance on that with the guard
    bits of every word in ``HH``: no borrow crosses a lane, so the test
    holds across words as it does within one, and extending adds ``INC``.
    """
    L, off = row
    R, wt = len(item), item[ks]
    INC = sum(v << 64 * q for q, v in enumerate(item[:ks]))
    HH = sum(H << 64 * q for q in range(ks))
    recs = [L[i : i + R].tolist() for i in range(0, len(L), R)]
    sums = L[0::R].tolist()
    for q in range(1, ks):
        sums = [v | w << 64 * q for v, w in zip(sums, L[q::R])]
    off = off.tolist()
    comparisons = max_cell = 0
    L_out, offs = array("Q"), array("q")
    for x in range(lo, len(off) - 1):
        offs.append(len(L_out) // R)
        A = zip(recs[off[x] : off[x + 1]], sums[off[x] : off[x + 1]])
        B = range(off[x - wt], off[x - wt + 1]) if x >= wt else ()  # else the cell carries over
        comparisons += (off[x + 1] - off[x]) * len(B)
        ext = [list(map(add, recs[i], item)) for i in B]
        ext_sums = [sums[i] + INC for i in B]
        for a, sa in A:
            for e, sb in zip(ext, ext_sums):  # an a that one e covers covers no other
                if sa == sb:  # equal vectors: the lighter, then the larger witness words
                    if a[ks] < e[ks] or (a[ks] == e[ks] and a[ks + 1 :] > e[ks + 1 :]):
                        e[ks] = 0
                    else:
                        break
                elif ((sb | HH) - sa) & HH == HH:
                    break
                elif ((sa | HH) - sb) & HH == HH:
                    e[ks] = 0  # marked dominated: no extension weighs 0
            else:
                L_out.extend(a)
        for e in ext:
            if e[ks]:
                L_out.extend(e)
        max_cell = max(max_cell, len(L_out) // R - offs[-1])
    offs.append(len(L_out) // R)
    return (L_out, offs), comparisons, max_cell


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
    fn.argtypes = [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 4 + [ctypes.c_uint64]
    fn.restype = ctypes.c_int

    def kernel(row, lo, ks, H, item):
        # The C side reads and writes through bare pointers, unchecked: off[-1]
        # records of len(item) words in, up to twice that many out.
        L, off = row
        if not (
            all(isinstance(b, array) for b in (L, off, item))
            and L.typecode + off.typecode + item.typecode == "QqQ"
            and 0 <= ks < len(item) - 1  # the weight, then at least one witness word
            and 1 <= item[ks] < 1 << 63  # weight 0 marks the dominated; C reads it as int64
            and 0 <= lo < len(off) - 1  # the next row keeps at least column W
            and off[0] == 0
            and len(L) == off[-1] * (R := len(item))
        ):
            raise ValueError("row kernel buffers do not fit the row")
        L_o, off_o = _zeros("Q", 2 * len(L)), _zeros("q", len(off) - lo)
        out = array("q", [0, 0, 0])  # pos, comparisons, max_cell
        addr = [b.buffer_info()[0] for b in (L, off, item, L_o, off_o, out)]
        if fn(*addr, len(off) - 1, lo, R, ks, H) != 0:
            raise ValueError("row kernel buffers do not fit the row")  # off decreases
        pos, comparisons, max_cell = out
        del L_o[pos * R :]
        return (L_o, off_o), comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"
