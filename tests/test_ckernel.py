"""The C kernel's build and its loader, ``qknap.ckernel``.

Each test here loads the kernel afresh, into a cache of its own. The
C sweep's rows and those of its twin are checked in test_dp.py, and so
is the Python kernel a solve falls back to when no C kernel loads.
"""

import importlib.machinery
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import qknap.ckbuild
import qknap.ckernel
import qknap.dp
import qknap.twin
from helpers import C_BACKEND, compiler_found, files_in, needs_cc, small_sweep
from qknap import GeneratorParams, generate_instance, solve

pytestmark = pytest.mark.usefixtures("fresh_loader")


@needs_cc
def test_row_kernel_compiles_without_warnings(tmp_path):
    source = Path(qknap.ckernel.__file__).with_name("_rowkernel.c")
    # the kernel is built by whatever cc a user has: keep it to standard C99
    argv = [*qknap.ckbuild._compiler(), "-std=c99", "-pedantic-errors", "-Wall", "-Wextra", "-Werror"]
    argv += [*qknap.ckernel._CFLAGS, f"-I{sysconfig.get_paths()['include']}"]
    run = subprocess.run(
        [*argv, "-o", str(tmp_path / "rowkernel.so"), str(source)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def test_a_missing_compiler_is_found_missing_before_any_build(tmp_path):
    # Without a compiler on hand the build, which a cache miss imports, gives
    # up at once: neither subprocess nor tempfile imported, nothing written to
    # the cache. -S keeps site hooks, which may import modules of their own,
    # out of the child.
    cache = tmp_path / "cache"
    script = (
        "import sys; import qknap.ckernel; kernel, reason = qknap.ckernel._load_row_kernel(); "
        'print(kernel is None, "qknap.ckbuild" in sys.modules, "subprocess" in sys.modules, '
        '"tempfile" in sys.modules); print(reason)'
    )
    env = {
        **os.environ,
        "CC": "/nonexistent/cc",
        "XDG_CACHE_HOME": str(cache),
        "PYTHONPATH": str(Path(qknap.dp.__file__).parents[1]),
    }
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    verdict, reason = run.stdout.splitlines()
    assert verdict == "True True False False"
    assert "/nonexistent/cc" in reason
    assert not cache.exists() or not any(cache.iterdir())


@needs_cc
def test_kernel_cache_is_keyed_by_the_compiler(tmp_path, monkeypatch):
    # a build by one compiler, such as a sanitizer's, must never load for another
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is not None, reason
    qknap.ckernel._load_row_kernel.cache_clear()
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is None
    assert "no-such-cc" in reason


@needs_cc
def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    # The XDG Base Directory spec ignores a relative $XDG_CACHE_HOME: the build
    # goes to ~/.cache/qknap, and nothing lands under the working directory.
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.chdir(cwd)
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert kernel is not None, reason
    assert reason.startswith(f"compiled C row kernel {home}/.cache/qknap/"), reason
    assert files_in(cwd) == set()


@needs_cc
def test_each_extension_suffix_gets_its_own_build(tmp_path, monkeypatch):
    # Interpreters that share a magic number, such as a debug and a release
    # build, load different extensions: each suffix names its own cache entry.
    builds = tmp_path / "cache" / "qknap"
    for suffix in (importlib.machinery.EXTENSION_SUFFIXES[0], ".cpython-test.so"):
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [suffix])
        qknap.ckernel._load_row_kernel.cache_clear()
        kernel, reason = qknap.ckernel._load_row_kernel()
        assert kernel is not None and reason.endswith(suffix), reason
        assert small_sweep(kernel) == small_sweep(qknap.twin.sweep)
    names = sorted(path.name for path in files_in(builds))
    assert len(names) == 2 and names[0].split(".")[0] == names[1].split(".")[0], names


def test_a_platform_without_uname_keys_the_build_without_the_machine(monkeypatch):
    # Windows has no os.uname: the loader leaves the machine out of the cache
    # key, and loads or builds the kernel as it does elsewhere.
    big = generate_instance(GeneratorParams(n=40, k=3, weight_max=9, seed=1, capacity=60))
    want = solve(big)  # 2,440 cells
    keyed = qknap.ckernel._load_row_kernel()[1]
    qknap.ckernel._load_row_kernel.cache_clear()
    monkeypatch.delattr(os, "uname")
    kernel, reason = qknap.ckernel._load_row_kernel()
    assert (kernel is not None) == compiler_found(), reason
    if kernel is not None:  # another key names another build, beside the first
        assert reason.startswith("compiled C row kernel ") and reason != keyed, reason
    res = solve(big)
    assert res.stats.backend == C_BACKEND
    assert res.labels == want.labels
