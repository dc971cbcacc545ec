"""Shared test utilities: CLI runner, strategies, random valuations."""

from __future__ import annotations

import shutil
import subprocess
import sys
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
