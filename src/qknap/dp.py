"""Exact frontier computation by dynamic programming over label sets.

The solver sweeps the items and, for every capacity budget x in 0..W,
maintains the set of non-dominated rank cardinality vectors reachable
with the items seen so far. Each vector is carried as a label holding
its suffix-sum form, its minimal achieving weight, and a chain encoding
one witness subset. Merging a cell with its extended predecessor keeps
exactly the labels that survive the suffix-sum dominance test; equal
vectors are collapsed to the lighter witness, then to the
lexicographically smallest id tuple.

Labels are stored internally as suffix-sum rows so dominance is a plain
componentwise comparison; witness subsets are parent-pointer chains so
extending a label is O(1). Reported cells never include the empty
selection's all-zero label.

The witness rule is global, so the final labels do not depend on the
order in which items are swept. Equal-vector, equal-weight witnesses
have the same size, and of two sorted id tuples of equal length the
smaller holds the least element of their symmetric difference; adding
one item to both leaves that element alone. ``solve`` therefore sweeps
items in descending id order, except with ``keep_matrix``, whose cells
are defined by input prefixes. In that order the item being added has a
smaller id than every id of a rival witness, so every tie goes to the
extension and is settled in O(1).

Two drivers produce identical results: a per-cell numpy path that also
supports keeping the whole matrix and applies the id-tuple rule in any
item order, and a row-at-a-time path, where labels live in one
contiguous block per row and witness chains are indices into a parent
arena. The row driver's kernel is C (``_rowkernel.c``, shipped beside
this module) and relies on the descending order for ties. The first
solve of at least ``_KERNEL_MIN_CELLS`` cells compiles it with ``$CC``
(else ``cc``) into ``$XDG_CACHE_HOME/qknap`` (else ``~/.cache/qknap``),
under a name keyed by the source, the platform and the flags, and loads
it through ctypes. Later processes load the cached file. When no
compiler runs or the cache is not writable, every solve takes the numpy
driver. ``SolveStats.backend`` names the driver that ran.
"""

from __future__ import annotations

import math
import os
import shlex
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import Instance, Label, canonical_key, validate_instance

__all__ = ["FrontierResult", "LabelMatrix", "SolveStats", "label_bound", "solve"]

# Solves of at least this many cells (n * (W + 1)) run the C kernel. At
# 2,000 cells the numpy driver takes 35-65 us per cell (0.07-0.13 s a
# solve), the kernel 1-2 us, and building the kernel once, cached for later
# processes, 0.12-0.17 s (2-vCPU VM, gcc 12): about one numpy solve of
# that size. Smaller solves, such as a cold start on a tiny instance,
# never start the compiler.
_KERNEL_MIN_CELLS = 2_000
_CFLAGS = ("-O2", "-shared", "-fPIC")
_UNSET = object()
_row_kernel = _UNSET
_row_kernel_reason = "not loaded yet"


@dataclass
class SolveStats:
    """Counters from one solver run.

    ``backend`` names what ran: ``"c-kernel"`` or ``"numpy"`` for the DP
    drivers, ``"oracle"`` for brute-force enumeration. Given the same
    input and backend, only wall_time varies between runs.
    """

    cells: int = 0
    max_cell: int = 0
    comparisons: int = 0
    wall_time: float = 0.0
    backend: str = ""


@dataclass(frozen=True)
class LabelMatrix:
    """All DP cells, materialized: ``cells[i][x]`` for i in 0..n, x in 0..W."""

    cells: tuple[tuple[tuple[Label, ...], ...], ...]

    def cell(self, i: int, x: int) -> tuple[Label, ...]:
        return self.cells[i][x]

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.cells[0])


@dataclass(frozen=True)
class FrontierResult:
    """Non-dominated labels in canonical order, plus run counters."""

    labels: tuple[Label, ...]
    stats: SolveStats
    matrix: LabelMatrix | None = None

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(lab.vector for lab in self.labels)


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
    n*W; meant for small instances and debugging).
    """
    validate_instance(inst)
    t0 = time.perf_counter()
    n, W = len(inst.items), inst.capacity
    stats = SolveStats(cells=n * (W + 1))
    kernel = None
    if not keep_matrix:
        # settles witness ties toward the extension; see the module docstring
        inst = replace(inst, items=tuple(sorted(inst.items, key=lambda it: it.id, reverse=True)))
        if n * (W + 1) >= _KERNEL_MIN_CELLS:
            kernel = _load_row_kernel()
    if kernel is not None:
        stats.backend = "c-kernel"
        labels = _solve_rows(inst, stats, kernel)
        matrix = None
    else:
        stats.backend = "numpy"
        labels, matrix = _solve_cells_numpy(inst, stats, keep_matrix)
    stats.wall_time = time.perf_counter() - t0
    return FrontierResult(labels=labels, stats=stats, matrix=matrix)


def _suffix_row_to_vector(row, k: int) -> tuple[int, ...]:
    return tuple(int(row[j]) - int(row[j + 1]) for j in range(k - 1)) + (int(row[k - 1]),)


# --------------------------------------------------------------------------
# Reference driver: one numpy merge per cell, optional full matrix.


class _Node:
    """Witness-subset chain: one item id per link, root carries the empty tuple."""

    __slots__ = ("parent", "item_id", "_ids")

    def __init__(self, parent: "_Node | None", item_id: int | None) -> None:
        self.parent = parent
        self.item_id = item_id
        self._ids: tuple[int, ...] | None = None

    def ids(self) -> tuple[int, ...]:
        """Ascending id tuple of the subset; cached once materialized."""
        if self._ids is None:
            acc = []
            node = self
            while node._ids is None:
                acc.append(node.item_id)
                node = node.parent
            acc.extend(node._ids)
            self._ids = tuple(sorted(acc))
        return self._ids


_ROOT = _Node(None, None)
_ROOT._ids = ()


def _merge_numpy(Sa, wa, Sb0, wb0, level, wt):
    """Merge a cell (Sa, wa) with its predecessor (Sb0, wb0) extended by one item.

    Both sides are internally dominance-free. Returns packed survivor
    rows (A side first), each with its source row index, the (a, b)
    pairs equal in both vector and weight (their ranking needs the
    id-tuple rule, which lives outside; the B member is tentatively
    dropped), and the B survivor count. A label killed by an equal-
    vector twin may still kill others: dominance is transitive, so the
    surviving twin covers them.
    """
    Sb = Sb0.copy()
    Sb[:, :level] += 1  # one more item at `level` raises suffix sums up to it
    wb = wb0 + wt
    ge_ba = (Sb[:, None, :] >= Sa[None, :, :]).all(axis=2)  # (mb, ma)
    ge_ab = (Sa[:, None, :] >= Sb[None, :, :]).all(axis=2)  # (ma, mb)
    eq = ge_ba & ge_ab.T
    tie_mask = eq & (wb[:, None] == wa[None, :])
    kill_a = ((ge_ba & ~ge_ab.T) | (eq & (wb[:, None] < wa[None, :]))).any(axis=0)
    kill_b = (
        (ge_ab & ~ge_ba.T) | (eq.T & (wa[:, None] < wb[None, :])) | tie_mask.T
    ).any(axis=0)
    ties = np.argwhere(tie_mask)[:, ::-1]  # as (a, b)
    if len(ties):
        ties = ties[~kill_a[ties[:, 0]]]  # moot once A lost to a strict dominator
    keep_a = np.flatnonzero(~kill_a)
    keep_b = np.flatnonzero(~kill_b)
    S_out = np.concatenate((Sa[keep_a], Sb[keep_b]))
    w_out = np.concatenate((wa[keep_a], wb[keep_b]))
    idx = np.concatenate((keep_a, keep_b))
    return S_out, w_out, idx, ties, len(keep_b)


def _materialize_cell(cell) -> tuple[Label, ...]:
    """Reported view of a cell: zero label stripped, canonical order."""
    S, w, reps = cell
    k = S.shape[1]
    out = []
    for i in range(len(w)):
        weight = int(w[i])
        if weight == 0:
            continue
        out.append(
            Label(
                vector=_suffix_row_to_vector(S[i], k),
                weight=weight,
                items=reps[i].ids(),
            )
        )
    out.sort(key=canonical_key)
    return tuple(out)


def _solve_cells_numpy(inst, stats, keep_matrix):
    k, W = inst.k, inst.capacity
    zero_cell = (np.zeros((1, k), np.int64), np.zeros(1, np.int64), [_ROOT])
    prev = [zero_cell] * (W + 1)
    rows = [prev]
    for item in inst.items:
        wt, lvl, iid = item.weight, item.level, item.id
        cur = prev[: min(wt, W + 1)]
        for x in range(wt, W + 1):
            cell_a = prev[x]
            Sa, wa, ra = cell_a
            Sb0, wb0, rb0 = prev[x - wt]
            S_out, w_out, idx, ties, nb = _merge_numpy(Sa, wa, Sb0, wb0, lvl, wt)
            stats.comparisons += len(wa) * len(wb0)
            flips = []
            for a, b in ties:
                a, b = int(a), int(b)
                ids_b = tuple(sorted(rb0[b].ids() + (iid,)))
                if ids_b < ra[a].ids():
                    flips.append((a, b, ids_b))
            m = len(w_out)
            na = m - nb
            if nb == 0 and na == len(wa) and not flips:
                cur.append(cell_a)  # extension contributed nothing; share the cell
                continue
            reps = [None] * m
            for slot in range(na):
                reps[slot] = ra[idx[slot]]
            for slot in range(na, m):
                reps[slot] = _Node(rb0[idx[slot]], iid)
            for a, b, ids_b in flips:
                node = _Node(rb0[b], iid)
                node._ids = ids_b
                reps[int(np.searchsorted(idx[:na], a))] = node
            if not (m == 1 and w_out[0] == 0) and m > stats.max_cell:
                stats.max_cell = m
            cur.append((S_out, w_out, reps))
        prev = cur
        if keep_matrix:
            rows.append(cur)
    labels = _materialize_cell(prev[W])
    matrix = None
    if keep_matrix:
        matrix = LabelMatrix(tuple(tuple(_materialize_cell(c) for c in row) for row in rows))
    return labels, matrix


# --------------------------------------------------------------------------
# Row driver: one C kernel call per row over contiguous storage.
#
# A row's labels live packed in (S, w, rep) blocks with off[x]:off[x+1]
# delimiting capacity x. Witness chains are arena entries: node i has
# parent par[i] and appended item itm[i]; node 0 is the empty root.


def _compiler() -> list[str]:
    """The command that builds the row kernel: ``$CC``, else ``cc``."""
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def _load_row_kernel():
    """The compiled C row kernel, built on first use; None if it cannot be had.

    ``_row_kernel_reason`` then names the shared object that loaded, or
    why none did. Without a kernel every solve runs the numpy driver.
    """
    global _row_kernel, _row_kernel_reason
    if _row_kernel is _UNSET:
        _row_kernel, _row_kernel_reason = _build_row_kernel()
    return _row_kernel


def _build_row_kernel():
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
    arr = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.argtypes = [arr] * 4 + [i64] * 5 + [arr] * 6 + [i64, arr]
    fn.restype = ctypes.c_int

    def kernel(S, w, rep, off, wt, level, iid, S_o, w_o, rep_o, off_o, par, itm, top):
        # the C side writes unchecked: up to m kept and m extended labels, m new nodes
        m, k = S.shape
        if not (
            len(w) == len(rep) == m == off[-1]
            and S_o.shape[1] == k
            and min(len(S_o), len(w_o), len(rep_o)) >= 2 * m
            and len(off_o) == len(off)
            and min(len(par), len(itm)) >= top + m
        ):
            raise ValueError("row kernel buffers do not fit the row")
        out = np.empty(4, np.int64)
        if fn(S, w, rep, off, len(off) - 1, k, wt, level, iid,
              S_o, w_o, rep_o, off_o, par, itm, top, out) != 0:
            raise MemoryError("row kernel could not allocate its scratch space")
        return tuple(out.tolist())  # pos, top, comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"


def _solve_rows(inst, stats, kernel):
    k, W = inst.k, inst.capacity
    cols = W + 2
    # row 0: the all-zero label (empty subset, arena root 0) in every column
    m0 = W + 1
    S = np.zeros((m0, k), np.int64)
    w = np.zeros(m0, np.int64)
    rep = np.zeros(m0, np.int64)
    off = np.arange(cols, dtype=np.int64)
    arena_cap = 1 << 12
    par = np.empty(arena_cap, np.int64)
    itm = np.empty(arena_cap, np.int64)
    par[0] = -1
    itm[0] = 0
    top = 1
    for item in inst.items:
        m = int(off[W + 1])
        need = 2 * m  # survivors of each column fit in ma + mb
        S_o = np.empty((need, k), np.int64)
        w_o = np.empty(need, np.int64)
        rep_o = np.empty(need, np.int64)
        off_o = np.empty(cols, np.int64)
        if top + need > arena_cap:
            arena_cap = max(2 * arena_cap, top + 2 * need)
            par = np.concatenate((par, np.empty(arena_cap - len(par), np.int64)))
            itm = np.concatenate((itm, np.empty(arena_cap - len(itm), np.int64)))
        pos, top, comps, mc = kernel(
            S, w, rep, off, item.weight, item.level, item.id,
            S_o, w_o, rep_o, off_o, par, itm, top,
        )
        stats.comparisons += comps
        if mc > stats.max_cell:
            stats.max_cell = mc
        S, w, rep, off = S_o[:pos], w_o[:pos], rep_o[:pos], off_o
    out = []
    for i in range(int(off[W]), int(off[W + 1])):
        weight = int(w[i])
        if weight == 0:
            continue
        ids = []
        node = int(rep[i])
        while node > 0:
            ids.append(int(itm[node]))
            node = int(par[node])
        out.append(
            Label(
                vector=_suffix_row_to_vector(S[i], k),
                weight=weight,
                items=tuple(sorted(ids)),
            )
        )
    out.sort(key=canonical_key)
    return tuple(out)
