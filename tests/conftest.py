from pathlib import Path

import pytest

import qknap.ckernel
from qknap import Instance, Item

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True, scope="session")
def _private_kernel_cache(tmp_path_factory):
    # The row kernel is built into $XDG_CACHE_HOME/qknap; keep the builds of a
    # test run out of the user's cache. Subprocesses inherit the variable.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    # A test that loads the C kernel afresh: builds go to tmp_path/cache, and
    # the next load after the test runs again, in the restored environment.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    qknap.ckernel._load_row_kernel.cache_clear()
    yield
    qknap.ckernel._load_row_kernel.cache_clear()


@pytest.fixture
def table1() -> Instance:
    # four items of weights 1..4, one per level, capacity 6
    return Instance(
        k=4,
        capacity=6,
        items=(Item(1, 1, 1), Item(2, 2, 2), Item(3, 3, 3), Item(4, 4, 4)),
    )


@pytest.fixture
def table2() -> Instance:
    # weight-major greedy leaves capacity unused here and loses to {2}
    return Instance(k=2, capacity=3, items=(Item(1, 2, 1), Item(2, 3, 2)))


@pytest.fixture
def data_dir() -> Path:
    return DATA
