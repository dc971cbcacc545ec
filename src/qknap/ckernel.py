"""Building and loading the C sweep, the extension module ``_rowkernel.c``.

``qknap.dp.solve`` imports this module only for a solve of at least
``dp._KERNEL_MIN_CELLS`` cells, so smaller solves never pay for it. The
extension's ``sweep`` merges every DP row exactly as ``dp._sweep_py``,
its pure-Python twin, does; ``qknap.dp`` describes the row and the
merge.

The first load compiles the extension with ``$CC`` (else ``cc``) and the
interpreter's headers into ``$XDG_CACHE_HOME/qknap`` (else
``~/.cache/qknap``), under a name keyed by the source, the platform, the
``$CC`` text and the flags, and ending in the interpreter's first
extension suffix, and loads it as the module ``qknap._rowkernel``. The
key's hash is ``importlib.util.source_hash``, which is keyed by the
interpreter's magic number, so each Python version builds its own copy.
Later processes load the cached file with ``importlib.machinery`` and
``importlib.util``, which ``python -m`` has already imported: ``shlex``,
``sysconfig`` and the compiler toolchain (``shutil``, ``subprocess``,
``tempfile``) are imported only to build, and a compiler or a
``Python.h`` that is not there is found missing before anything is
written. A build compiles into a temporary directory inside the cache
and is renamed into place. When no compiler or header is found, the
compiler fails, or an OSError, an ImportError, a missing home directory
or a ``$CC`` that ``shlex`` cannot split stops the build or the load,
there is no C kernel and every solve takes the Python twin.

C checks its inputs, grows its own buffers and may raise: ValueError for
any buffer or scalar that does not fit, before it reads a record, and
MemoryError when a row outgrows what it can allocate.
"""

import functools
import importlib.machinery
import importlib.util
import os
import sys

_CFLAGS = ("-O2", "-shared", "-fPIC")


def _compiler() -> list[str]:
    """The command that builds the kernel: ``$CC``, else ``cc``."""
    import shlex

    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def _home() -> str:
    """The user's home directory; RuntimeError when there is none to be found."""
    home = os.path.expanduser("~")
    if home == "~":  # no $HOME, and pwd does not know the uid
        raise RuntimeError("Could not determine home directory.")
    return home


@functools.cache
def _load_row_kernel():
    """``(sweep, reason)``: the C sweep, compiled on first use.

    ``sweep`` is None when it cannot be had, and every solve then runs
    ``dp._sweep_py``; ``reason`` names the extension that loaded, or why
    none did: no compiler or no ``Python.h`` found, the compiler failed
    (with the tail of its stderr), or ``no C row kernel: ...`` with the
    OSError or ImportError met on the way, the RuntimeError of a home
    directory that cannot be found, or the ValueError of a ``$CC`` that
    ``shlex`` cannot split. ``_load_row_kernel.cache_clear()`` makes the
    next call try again.
    """
    source = os.path.join(os.path.dirname(__file__), "_rowkernel.c")
    try:
        # A build for another compiler, such as a sanitizer's, must not be loaded.
        key = "\0".join((sys.platform, os.uname().machine, os.environ.get("CC", ""), *_CFLAGS))
        with open(source, "rb") as f:
            key = key.encode() + b"\0" + f.read()
        cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(_home(), ".cache")
        cache = os.path.join(cache, "qknap")
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        name = f"rowkernel-{importlib.util.source_hash(key).hex()}{suffix}"
        lib = os.path.join(cache, name)
        if not os.path.exists(lib):
            import shlex
            import shutil
            import sysconfig

            cc = _compiler()
            if shutil.which(cc[0]) is None:
                return None, f"no C compiler {shlex.join(cc)} to build {name}"
            include = sysconfig.get_paths()["include"]
            if not os.path.exists(os.path.join(include, "Python.h")):
                return None, f"no Python.h in {include} to build {name}"
            import subprocess
            import tempfile

            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = os.path.join(tmp, name)
                argv = [*cc, *_CFLAGS, f"-I{include}", "-o", built, source]
                run = subprocess.run(argv, capture_output=True, text=True)
                if run.returncode != 0:
                    err = run.stderr.strip()[-400:]
                    return None, f"{shlex.join(cc)} failed (exit {run.returncode}): {err}"
                os.replace(built, lib)  # atomic on one filesystem: none loads a half-written file
        loader = importlib.machinery.ExtensionFileLoader("qknap._rowkernel", lib)
        spec = importlib.util.spec_from_file_location(loader.name, lib, loader=loader)
        sweep = importlib.util.module_from_spec(spec).sweep
    # RuntimeError: _home() finds no home; ValueError: a $CC shlex cannot split
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        return None, f"no C row kernel: {exc}"
    return sweep, f"compiled C row kernel {lib}"
