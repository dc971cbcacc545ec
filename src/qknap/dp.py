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

A row lives in four flat stdlib ``array`` buffers: S, w and off of
int64 (typecode "q"), M of uint64 ("Q"). Label i of a row holds the k
suffix sums S[i*k:(i+1)*k], the weight w[i] and the witness words
M[i*nw:(i+1)*nw]; labels off[x]:off[x+1] belong to capacity x. Suffix
sums make dominance a plain componentwise comparison. M holds each
witness as a bit set of nw = ceil(n/64) words over the items ranked by
ascending id: rank r is bit 63 - r % 64 of word r // 64. Equal-vector,
equal-weight witnesses have the same size, and the one with the smaller
sorted id tuple holds the least id of their symmetric difference, so
its words compare larger as unsigned integers, word 0 first. That
settles every tie in O(n/64), whatever the order in which items are
swept.

One row kernel merges a row, in two implementations that give the same
labels and counters: C (``_rowkernel.c``, shipped beside this module)
and its pure-Python twin ``_row_kernel_py``, which follows it step for
step. The first solve of at least ``_KERNEL_MIN_CELLS`` cells compiles
the C kernel with ``$CC`` (else ``cc``) into ``$XDG_CACHE_HOME/qknap``
(else ``~/.cache/qknap``), under a name keyed by the source, the
platform and the flags, and loads it through ctypes. Later processes
load the cached file. Smaller solves, and every solve when no compiler
runs or the cache is not writable, take the Python twin.
``SolveStats.backend`` names the kernel that ran.

Both kernels take a row and one item and return the next row: one row
in, one row out. The C kernel gets the buffers' addresses as bare
pointers, so its ctypes wrapper allocates the next row itself, room for
two labels for every input label, and trims it to what C wrote. It
checks first what C cannot: that each input buffer is an ``array`` of
the right typecode, that the row's lengths agree with k, nw and off,
and that the item's rank falls inside nw words. Otherwise it raises
ValueError before any C code runs; C itself refuses offsets that
decrease, before it allocates or writes anything.
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
    LabelMatrix,
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
    row = (
        _zeros("q", (W + 1) * k),
        _zeros("q", W + 1),
        _zeros("Q", (W + 1) * nw),
        array("q", range(W + 2)),
    )
    rows = [row]
    for item in inst.items:
        row, comps, mc = kernel(row, k, nw, item.weight, item.level, rank[item.id])
        stats.comparisons += comps
        stats.max_cell = max(stats.max_cell, mc)
        if keep_matrix:
            rows.append(row)
    labels = _cell_labels(row, W, ids)
    matrix = None
    if keep_matrix:
        cells = (tuple(_cell_labels(r, x, ids) for x in range(W + 1)) for r in rows)
        matrix = LabelMatrix(tuple(cells))
    stats.wall_time = time.perf_counter() - t0
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _zeros(typecode: str, size: int) -> array:
    return array(typecode, [0]) * size


def _cell_labels(row, x: int, ids: list[int]) -> tuple[Label, ...]:
    """Reported view of column x of a row: zero label stripped, canonical order.

    ``ids`` lists the item ids in rank order, which is ascending, so each
    witness comes out sorted.
    """
    S, w, M, off = row
    k, nw = len(S) // len(w), len(M) // len(w)  # every column holds at least the zero label
    out = []
    for i in range(off[x], off[x + 1]):
        weight = w[i]
        if weight == 0:
            continue
        s, words = S[i * k : i * k + k], M[i * nw : i * nw + nw]
        items = []
        for q, word in enumerate(words):
            while word:
                top = word.bit_length() - 1
                items.append(ids[64 * q + 63 - top])
                word ^= 1 << top
        vector = tuple(s[j] - s[j + 1] for j in range(len(s) - 1)) + (s[-1],)
        out.append(Label(vector=vector, weight=weight, items=tuple(items)))
    out.sort(key=canonical_key)
    return tuple(out)


def _row_kernel_py(row, k, nw, wt, level, rank):
    """Pure-Python twin of the C row kernel (``_rowkernel.c``).

    Same arguments and results as the C kernel's wrapper: ``(next_row,
    comparisons, max_cell)``. The C file documents the layout and the
    tie rule.
    """
    S, w, M, off = row
    word, bit = rank // 64, 1 << (63 - rank % 64)
    S = [S[i : i + k].tolist() for i in range(0, len(S), k)]
    M = [M[i : i + nw].tolist() for i in range(0, len(M), nw)]
    w, off = w.tolist(), off.tolist()
    pos = comparisons = max_cell = 0
    S_out, w_out, M_out, offs = [], [], [], []
    for x in range(len(off) - 1):
        offs.append(pos)
        a0, ma, b0, mb = off[x], off[x + 1] - off[x], 0, 0
        if x >= wt:  # else the item does not fit and the cell carries over
            b0, mb = off[x - wt], off[x - wt + 1] - off[x - wt]
        comparisons += ma * mb
        kill_a = [False] * ma
        kill_b = [False] * mb
        ext = [[v + 1 if j < level else v for j, v in enumerate(S[b])] for b in range(b0, b0 + mb)]
        ext_M = [M[b][:word] + [M[b][word] | bit] + M[b][word + 1 :] for b in range(b0, b0 + mb)]
        for ai in range(ma):
            sa = S[a0 + ai]
            for bi in range(mb):
                sb = ext[bi]
                if sa == sb:
                    # equal vectors: the lighter witness, then the smaller id tuple,
                    # whose word list compares larger
                    wa, wb = w[a0 + ai], w[b0 + bi] + wt
                    if wa < wb or (wa == wb and M[a0 + ai] > ext_M[bi]):
                        kill_b[bi] = True
                    else:
                        kill_a[ai] = True
                elif all(map(ge, sb, sa)):
                    kill_a[ai] = True
                elif all(map(ge, sa, sb)):
                    kill_b[bi] = True
        for ai in range(ma):
            if not kill_a[ai]:
                S_out += S[a0 + ai]
                w_out.append(w[a0 + ai])
                M_out += M[a0 + ai]
                pos += 1
        for bi in range(mb):
            if not kill_b[bi]:
                S_out += ext[bi]
                w_out.append(w[b0 + bi] + wt)
                M_out += ext_M[bi]
                pos += 1
        m = pos - offs[x]
        if m > max_cell and not (m == 1 and w_out[offs[x]] == 0):
            max_cell = m
    offs.append(pos)
    nxt = (array("q", S_out), array("q", w_out), array("Q", M_out), array("q", offs))
    return nxt, comparisons, max_cell


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
    # Imported here so that solves below the kernel threshold never pay for them.
    import ctypes
    import hashlib
    import platform
    import subprocess
    import tempfile

    source = Path(__file__).with_name("_rowkernel.c")
    try:
        text = source.read_bytes()
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    key = "\0".join((sys.platform, platform.machine(), *_CFLAGS)).encode() + b"\0" + text
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "qknap"
    lib = cache / f"rowkernel-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not lib.exists():
        cc = _compiler()
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
    fn.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 5
    fn.restype = ctypes.c_int

    def kernel(row, k, nw, wt, level, rank):
        # The C side reads and writes through bare pointers, unchecked: m labels
        # of k sums and nw words in, up to m kept and m extended labels out.
        S, w, M, off = row
        m = len(w)
        if not (
            all(isinstance(b, array) for b in row)
            and "".join(b.typecode for b in row) == "qqQq"
            and k >= 1
            and 1 <= wt < 1 << 63  # ctypes would wrap a larger one to a negative int64
            and len(S) == m * k
            and len(M) == m * nw
            and len(off) >= 2
            and off[0] == 0
            and off[-1] == m
            and 0 <= rank < 64 * nw
        ):
            raise ValueError("row kernel buffers do not fit the row")
        nxt = _zeros("q", 2 * m * k), _zeros("q", 2 * m), _zeros("Q", 2 * m * nw), _zeros("q", len(off))
        out = array("q", [0, 0, 0])  # pos, comparisons, max_cell
        addr = [b.buffer_info()[0] for b in (*row, *nxt, out)]
        rc = fn(*addr[:4], len(off) - 1, k, nw, wt, level, rank, *addr[4:])
        if rc == -2:
            raise ValueError("row kernel buffers do not fit the row")  # off decreases
        if rc != 0:
            raise MemoryError("row kernel could not allocate its scratch space")
        pos, comparisons, max_cell = out
        S_o, w_o, M_o, _ = nxt
        del S_o[pos * k :], w_o[pos:], M_o[pos * nw :]
        return nxt, comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"
