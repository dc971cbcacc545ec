"""Loading the C sweep, the extension module ``_rowkernel.c``, and building it on a miss.

``qknap.dp.solve`` imports this module only for a solve of at least
``dp._KERNEL_MIN_CELLS`` cells, so smaller solves never pay for it. The
extension's ``sweep`` merges every DP row exactly as its pure-Python
twin, ``qknap.twin.sweep``, does; ``qknap.dp`` describes the row and the
merge.

The extension is built with ``$CC`` (else ``cc``) and the interpreter's
headers into ``$XDG_CACHE_HOME/qknap`` (else, or when that path is not
absolute, ``~/.cache/qknap``), under a name keyed by the source, the
platform, the machine (where ``os.uname`` exists), the ``$CC`` text and
the flags, and ending in the interpreter's first extension suffix, and
loaded as the module ``qknap._rowkernel``. The key's hash is
``importlib.util.source_hash``, which is keyed by the interpreter's
magic number, so each Python version builds its own copy. A process that finds the build cached loads it with
``importlib.machinery`` and ``importlib.util``, which ``python -m`` has
already imported. Only a miss imports ``qknap.ckbuild``, which holds the
build: the compiler toolchain, its checks, the compile into a temporary
directory inside the cache and the rename into place. When no compiler
or header is found, the compiler fails, the interpreter has no extension
suffix, or an OSError, an ImportError, a missing home directory or a
``$CC`` that ``shlex`` cannot split stops the build or the load, there
is no C kernel and every solve takes the Python twin.

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


@functools.cache
def _load_row_kernel():
    """``(sweep, reason)``: the C sweep, compiled on first use.

    ``sweep`` is None when it cannot be had, and every solve then runs
    the twin, ``qknap.twin.sweep``; ``reason`` names the extension that
    loaded, or why none did: no compiler or no ``Python.h`` found, the
    compiler failed (with the tail of its stderr), or ``no C row kernel:
    ...`` with the OSError or ImportError met on the way (an interpreter
    with no extension suffix loads no extension), the RuntimeError of a
    home directory that cannot be found, or the ValueError of a ``$CC``
    that ``shlex`` cannot split. Where ``os.uname`` is missing, as on
    Windows, the cache key leaves the machine out. Nothing else leaves
    this function. ``_load_row_kernel.cache_clear()`` makes the next call
    try again.
    """
    source = os.path.join(os.path.dirname(__file__), "_rowkernel.c")
    try:
        # A build for another compiler, such as a sanitizer's, must not be loaded.
        machine = [os.uname().machine] if hasattr(os, "uname") else []  # Windows has no uname
        key = "\0".join((sys.platform, *machine, os.environ.get("CC", ""), *_CFLAGS))
        with open(source, "rb") as f:
            key = key.encode() + b"\0" + f.read()
        cache = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(cache):  # the XDG spec ignores a relative path
            home = os.path.expanduser("~")
            if home == "~":  # no $HOME, and pwd does not know the uid
                raise RuntimeError("Could not determine home directory.")
            cache = os.path.join(home, ".cache")
        if not importlib.machinery.EXTENSION_SUFFIXES:
            raise ImportError("this interpreter loads no extension modules")
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        lib = os.path.join(cache, "qknap", f"rowkernel-{importlib.util.source_hash(key).hex()}{suffix}")
        if not os.path.exists(lib):
            from .ckbuild import build

            failed = build(source, lib, _CFLAGS)
            if failed:
                return None, failed
        # the suffix picks the extension loader
        spec = importlib.util.spec_from_file_location("qknap._rowkernel", lib)
        sweep = importlib.util.module_from_spec(spec).sweep
    # RuntimeError: no home to be found; ValueError: a $CC shlex cannot split
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        return None, f"no C row kernel: {exc}"
    return sweep, f"compiled C row kernel {lib}"
