"""Exact frontier computation by dynamic programming over label sets.

The solver sweeps the items in input order and, for every capacity
budget x in 0..W, maintains the set of non-dominated rank cardinality
vectors reachable with the items seen so far. Each vector is carried as
a label holding its suffix-sum form, its minimal achieving weight, and
one witness subset. Merging a cell with its extended predecessor keeps
exactly the labels that survive the suffix-sum dominance test; equal
vectors are collapsed to the lighter witness, then to the
lexicographically smallest id tuple. Reported cells never include the
empty selection's all-zero label.

A row is two stdlib ``array`` buffers, ``(L, off)``. L (typecode "Q",
uint64) holds one record of k + 1 + nw words per label: the k suffix
sums, the weight, then the nw = ceil(n/64) witness words. Records
off[x]:off[x+1] (off of typecode "q") belong to capacity x. Suffix sums
make dominance a plain componentwise comparison. The witness words hold
a bit set over the items ranked by ascending id: rank r is bit
63 - r % 64 of word r // 64. Equal-vector, equal-weight witnesses have
the same size, and the one with the smaller sorted id tuple holds the
least id of their symmetric difference, so its words compare larger as
unsigned integers, word 0 first. That settles every tie in O(n/64),
whatever the order in which items are swept.

One row kernel merges a row, in two implementations that give the same
labels and counters: C (``_rowkernel.c``, shipped beside this module)
and its pure-Python twin ``_row_kernel_py``, which follows it step for
step. The first solve of at least ``_KERNEL_MIN_CELLS`` cells compiles
the C kernel with ``$CC`` (else ``cc``) into ``$XDG_CACHE_HOME/qknap``
(else ``~/.cache/qknap``), under a name keyed by the source, the
platform, the compiler command and the flags, and loads it through
ctypes. Later processes load the cached file, which takes ctypes and
hashlib only: the compiler toolchain (subprocess, tempfile) is imported
only to build. Smaller solves, and every solve when no compiler runs or
the cache is not writable, take the Python twin.
``SolveStats.backend`` names the kernel that ran.

Both kernels take a row and one item and return the next row, the
dominance comparisons made and max_cell, the size of the row's largest
column: one row in, one row out. Per column they extend each label of
column x - wt by the item once, then merge plain records, A (column x)
first, and mark a dominated extension by setting its weight to 0, which
no extension weighs. They know nothing of the zero label: ``solve``
leaves it out of max_cell, and ``_cell_labels`` out of the reported
cells. The C kernel gets the buffers' addresses as bare pointers, so
its ctypes wrapper allocates the next row itself, room for two labels
for every input label, and trims it to what C wrote; C allocates
nothing. The wrapper checks first what C cannot: that L and off are
``array``s of typecodes "Q" and "q", that L holds off[-1] records of
k + 1 + nw words, that the item weighs at least 1 and that its rank
falls inside nw words, and raises ValueError before any C code runs if
not. C checks each column's offsets when it reaches them and refuses
(ValueError too) any that decrease or point past the row.
"""

from __future__ import annotations

import functools
import math
import os
import shlex
import sys
import time
from array import array
from operator import ge
from pathlib import Path

from .model import (
    FrontierResult,
    Instance,
    Label,
    SolveStats,
    canonical_key,
    validate_instance,
)

__all__ = ["label_bound", "solve"]

# Solves of at least this many cells (n * (W + 1)) run the C kernel. At
# 2,000 cells the Python twin takes 9-30 us per cell (18-60 ms a solve),
# the C kernel 1-2 us, and building the C kernel once, cached for later
# processes, 0.16-0.21 s (2-vCPU VM, gcc 12.2): three to ten Python solves
# of that size. Smaller solves, such as a cold start on a tiny instance,
# never start the compiler.
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
    weight) + 1) cells.
    """
    validate_instance(inst)
    t0 = time.perf_counter()
    n, k, W = len(inst.items), inst.k, inst.capacity
    if not keep_matrix:  # a matrix shows every column, so it keeps W
        W = min(W, sum(item.weight for item in inst.items))
    stats = SolveStats(cells=n * (W + 1), backend="c-kernel")
    kernel = _load_row_kernel()[0] if stats.cells >= _KERNEL_MIN_CELLS else None
    if kernel is None:
        kernel, stats.backend = _row_kernel_py, "python"
    ids = sorted(item.id for item in inst.items)
    rank = {iid: r for r, iid in enumerate(ids)}
    nw = -(-n // 64)
    # row 0: the all-zero label (empty subset) in every column
    row = _zeros("Q", (W + 1) * (k + 1 + nw)), array("q", range(W + 2))
    rows = [row]
    for item in inst.items:
        row, comps, mc = kernel(row, k, nw, item.weight, item.level, rank[item.id])
        stats.comparisons += comps
        # The zero label does not count. When every column holds one label, all
        # are zero labels exactly when the last record, column W's, weighs 0:
        # column W holds a nonzero label whenever any column does.
        stats.max_cell = max(stats.max_cell, mc if mc > 1 or row[0][-1 - nw] else 0)
        if keep_matrix:
            rows.append(row)
    labels = _cell_labels(row, W, k, ids)
    matrix = None
    if keep_matrix:
        matrix = tuple(tuple(_cell_labels(r, x, k, ids) for x in range(W + 1)) for r in rows)
    stats.wall_time = time.perf_counter() - t0
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _zeros(typecode: str, size: int) -> array:
    return array(typecode, [0]) * size


def _cell_labels(row, x: int, k: int, ids: list[int]) -> tuple[Label, ...]:
    """Reported view of column x of a row: zero label stripped, canonical order.

    ``ids`` lists the item ids in rank order, which is ascending, so each
    witness comes out sorted.
    """
    L, off = row
    R = len(L) // off[-1]  # every column holds at least the zero label
    out = []
    for i in range(off[x], off[x + 1]):
        rec = L[i * R : i * R + R]
        if rec[k] == 0:
            continue
        items = []
        for q, word in enumerate(rec[k + 1 :]):
            while word:
                top = word.bit_length() - 1
                items.append(ids[64 * q + 63 - top])
                word ^= 1 << top
        vector = tuple(rec[j] - rec[j + 1] for j in range(k - 1)) + (rec[k - 1],)
        out.append(Label(vector=vector, weight=rec[k], items=tuple(items)))
    out.sort(key=canonical_key)
    return tuple(out)


def _row_kernel_py(row, k, nw, wt, level, rank):
    """Pure-Python twin of the C row kernel (``_rowkernel.c``).

    Same arguments and results as the C kernel's wrapper: ``(next_row,
    comparisons, max_cell)``.
    """
    L, off = row
    R = k + 1 + nw
    word, bit = k + 1 + rank // 64, 1 << (63 - rank % 64)
    recs = [L[i : i + R].tolist() for i in range(0, len(L), R)]
    off = off.tolist()
    comparisons = max_cell = 0
    L_out, offs = array("Q"), array("q")
    for x in range(len(off) - 1):
        offs.append(len(L_out) // R)
        A = recs[off[x] : off[x + 1]]
        B = recs[off[x - wt] : off[x - wt + 1]] if x >= wt else []  # else the cell carries over
        comparisons += len(A) * len(B)
        ext = [[v + (j < level) for j, v in enumerate(b[:k])] + [b[k] + wt] + b[k + 1 :] for b in B]
        for e in ext:
            e[word] |= bit
        ext_sums = [e[:k] for e in ext]
        for a in A:
            sa, kill_a = a[:k], False
            for e, sb in zip(ext, ext_sums):
                if sa == sb:  # equal vectors: the lighter, then the larger witness words
                    if a[k] < e[k] or (a[k] == e[k] and a[k + 1 :] > e[k + 1 :]):
                        e[k] = 0
                    else:
                        kill_a = True
                elif all(map(ge, sb, sa)):
                    kill_a = True
                elif all(map(ge, sa, sb)):
                    e[k] = 0  # marked dominated: no extension weighs 0
            if not kill_a:
                L_out.extend(a)
        for e in ext:
            if e[k]:
                L_out.extend(e)
        max_cell = max(max_cell, len(L_out) // R - offs[x])
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
    or why none did. ``_load_row_kernel.cache_clear()`` makes the next
    call try again.
    """
    # Imported here so that solves below the kernel threshold never pay for them;
    # the build's modules are imported only when there is something to build.
    import ctypes
    import hashlib

    source = Path(__file__).with_name("_rowkernel.c")
    try:
        text = source.read_bytes()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    # A build for another compiler, such as a sanitizer's, must not be loaded.
    cc = _compiler()
    key = "\0".join((sys.platform, os.uname().machine, *cc, *_CFLAGS)).encode() + b"\0" + text
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qknap"
    lib = cache / f"rowkernel-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not lib.exists():
        import subprocess
        import tempfile

        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=lib.name, suffix=".tmp")
            os.close(fd)
        except OSError as exc:
            return None, f"kernel cache {cache} is not writable: {exc}"
        try:
            argv = [*cc, *_CFLAGS, "-o", tmp, str(source)]
            run = subprocess.run(argv, capture_output=True, text=True)
            if run.returncode != 0:
                err = run.stderr.strip()[-400:]
                return None, f"{shlex.join(cc)} failed (exit {run.returncode}): {err}"
            os.replace(tmp, lib)  # atomic: a concurrent process never loads a half-written file
        except OSError as exc:
            return None, f"{shlex.join(cc)} could not build {lib}: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        fn = ctypes.CDLL(str(lib)).qknap_row_kernel
    except OSError as exc:
        return None, f"cannot load {lib}: {exc}"
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 3
    fn.restype = ctypes.c_int

    def kernel(row, k, nw, wt, level, rank):
        # The C side reads and writes through bare pointers, unchecked: off[-1]
        # records of k + 1 + nw words in, up to that many kept and extended out.
        L, off = row
        R = k + 1 + nw
        if not (
            all(isinstance(b, array) for b in row)
            and L.typecode + off.typecode == "Qq"
            and k >= 1
            and 1 <= wt < 1 << 63  # weight 0 marks the dominated; ctypes would wrap 2**63 and up
            and len(off) >= 2
            and off[0] == 0
            and len(L) == off[-1] * R
            and 0 <= rank < 64 * nw
        ):
            raise ValueError("row kernel buffers do not fit the row")
        L_o, off_o = _zeros("Q", 2 * len(L)), _zeros("q", len(off))
        out = array("q", [0, 0, 0])  # pos, comparisons, max_cell
        addr = [b.buffer_info()[0] for b in (L, off, L_o, off_o, out)]
        rc = fn(*addr[:2], len(off) - 1, k, nw, wt, level, rank, *addr[2:])
        if rc != 0:
            raise ValueError("row kernel buffers do not fit the row")  # off decreases
        pos, comparisons, max_cell = out
        del L_o[pos * R :]
        return (L_o, off_o), comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"
