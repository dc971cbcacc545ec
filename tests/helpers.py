"""Shared test utilities: kernels, a small sweep, CLI runner, strategies, random valuations."""

from __future__ import annotations

import shutil
import subprocess
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import qknap.ckbuild
from qknap import Instance, Item, Valuation


def compiler_found() -> bool:
    """Whether ``$CC`` (else ``cc``) names a program; a ``$CC`` shlex cannot split names none."""
    try:
        return shutil.which(qknap.ckbuild._compiler()[0]) is not None
    except ValueError:
        return False


needs_cc = pytest.mark.skipif(
    not compiler_found(), reason="no C compiler $CC (else cc) to build the row kernel"
)

# The backend a solve forced onto the C kernel (_KERNEL_MIN_CELLS = 0) runs: with
# a compiler on hand it must be C, or a check of C would compare the Python twin
# with itself.
C_BACKEND = "c-kernel" if compiler_found() else "python"

# (_KERNEL_MIN_CELLS, backend) of a solve forced onto the C kernel, then off it:
# parametrize over KERNELS, or loop over each one's ``.values``.
KERNELS = [pytest.param(0, C_BACKEND, id="c-kernel"), pytest.param(10**12, "python", id="python")]


def small_sweep(kernel, **args):
    """A sweep's rows, as lists of words, then its comparisons and max_cell.

    By default the sweep of a solve with k=2, n=3, W=3 over items 1 and
    2; ``args`` replace any of its arguments. Lanes of 3 bits, 21 to a
    word: a record of one lane word, the weight and the exit. Item 1
    (weight 1, level 1) adds 1 to lane 0 and its weight; item 2 (weight
    2, level 2) adds 1 to lanes 0 and 1 and its weight. An item's exit
    is 0.
    """
    default = dict(
        items=array("Q", [1, 1, 0, 0o11, 2, 0]),
        ts=array("Q", [0, 0]),
        ks=1,
        H=int("4" * 21, 8),  # the guard, top bit, of each 3-bit lane
        W=3,
        keep=True,
    )
    rows, *counts = kernel(*{**default, **args}.values())
    return [list(memoryview(row).cast("Q")) for row in rows], *counts


def files_in(directory):
    """The entries of ``directory``, none if it is missing."""
    return set(directory.iterdir()) if directory.is_dir() else set()


def run_cli(*args: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qknap", *map(str, args)],
        capture_output=True,
        text=True,
        check=False,
    )


def drop_wall_time(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# wall_time")
    )


@st.composite
def instances(draw, max_n=8, max_k=4, max_weight=8, max_capacity=20, min_n=0):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(min_n, max_n))
    ids = draw(st.permutations(range(1, n + 1)))
    items = tuple(
        Item(id=ids[i], weight=draw(st.integers(1, max_weight)), level=draw(st.integers(1, k)))
        for i in range(n)
    )
    capacity = draw(st.integers(0, max_capacity))
    return Instance(k=k, capacity=capacity, items=items)


@st.composite
def vectors(draw, k=None, max_k=5, max_count=8):
    if k is None:
        k = draw(st.integers(1, max_k))
    return tuple(draw(st.lists(st.integers(0, max_count), min_size=k, max_size=k)))


def random_valuation(rng, k: int) -> Valuation:
    """Strictly increasing positive rationals with small denominators."""
    vals = []
    cur = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    for _ in range(k):
        vals.append(cur)
        cur = cur + Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return Valuation(vals)


def random_vector(rng, k: int, max_count: int = 8) -> tuple[int, ...]:
    return tuple(rng.randint(0, max_count) for _ in range(k))


def improve(rng, g: tuple[int, ...]) -> tuple[int, ...]:
    """A vector weakly dominating g: promote counts upward and/or add items."""
    out = list(g)
    k = len(out)
    for _ in range(rng.randint(0, 3)):
        move = rng.random()
        if move < 0.5 and any(out[: k - 1]):
            lo = rng.choice([i for i in range(k - 1) if out[i] > 0])
            hi = rng.randint(lo + 1, k - 1)
            out[lo] -= 1
            out[hi] += 1  # promoting an item to a better level
        else:
            out[rng.randint(0, k - 1)] += 1  # adding an item
    return tuple(out)
