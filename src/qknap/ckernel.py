"""Building and loading the C row kernel, ``_rowkernel.c``.

``qknap.dp.solve`` imports this module only for a solve of at least
``dp._KERNEL_MIN_CELLS`` cells, so smaller solves never pay for it,
nor for the ``ctypes`` and ``shlex`` it imports. The kernel merges one
DP row exactly as ``dp._row_kernel_py``, its pure-Python twin, does;
``qknap.dp`` describes the row and the merge.

The first load compiles the kernel with ``$CC`` (else ``cc``) into
``$XDG_CACHE_HOME/qknap`` (else ``~/.cache/qknap``), under a name keyed
by the source, the platform, the compiler command and the flags, and
loads it through ctypes. The name is ``importlib.util.source_hash`` of
that key, which is keyed by the interpreter's magic number, so each
Python version builds its own copy. Later processes load the cached
file, which takes ctypes and importlib.util (which ``python -m`` has
already imported) only: the compiler toolchain (shutil, subprocess,
tempfile) is imported only to build, and a compiler that is not there
is found missing before anything is written. A build compiles into a
temporary directory inside the cache and is renamed into place. When no
compiler is found, the compiler fails, or an OSError, a missing home
directory or a ``$CC`` that ``shlex`` cannot split stops the build or
the load, there is no C kernel and every solve takes the Python twin.

The C kernel gets the buffers' addresses as bare pointers. It reads the
m = len(row) / R records of the row and the item's record, and writes
at most 2m records into the next row and at most 2m record numbers into
F, which its ctypes wrapper allocates and then trims the next row to
what C wrote. C allocates nothing, indexes by no value it reads from a
record, and cannot fail: the wrapper refuses, with ValueError, any
buffer or scalar that does not fit before any C code runs.
"""

import ctypes
import functools
import importlib.util
import os
import shlex
import sys
from array import array

_CFLAGS = ("-O2", "-shared", "-fPIC")


def _compiler() -> list[str]:
    """The command that builds the row kernel: ``$CC``, else ``cc``."""
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def _home() -> str:
    """The user's home directory; RuntimeError when there is none to be found."""
    home = os.path.expanduser("~")
    if home == "~":  # no $HOME, and pwd does not know the uid
        raise RuntimeError("Could not determine home directory.")
    return home


@functools.cache
def _load_row_kernel():
    """``(kernel, reason)``: the C row kernel, compiled on first use.

    ``kernel`` is None when it cannot be had, and every solve then runs
    ``dp._row_kernel_py``; ``reason`` names the shared object that
    loaded, or why none did: no compiler found, the compiler failed
    (with the tail of its stderr), or ``no C row kernel: ...`` with the
    OSError met on the way, the RuntimeError of a home directory that
    cannot be found, or the ValueError of a ``$CC`` that ``shlex``
    cannot split. ``_load_row_kernel.cache_clear()`` makes the next call
    try again.
    """
    source = os.path.join(os.path.dirname(__file__), "_rowkernel.c")
    try:
        cc = _compiler()
        # A build for another compiler, such as a sanitizer's, must not be loaded.
        key = "\0".join((sys.platform, os.uname().machine, *cc, *_CFLAGS)).encode()
        with open(source, "rb") as f:
            key += b"\0" + f.read()
        cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(_home(), ".cache")
        cache = os.path.join(cache, "qknap")
        name = f"rowkernel-{importlib.util.source_hash(key).hex()}.so"
        lib = os.path.join(cache, name)
        if not os.path.exists(lib):
            import shutil

            if shutil.which(cc[0]) is None:
                return None, f"no C compiler {shlex.join(cc)} to build {name}"
            import subprocess
            import tempfile

            os.makedirs(cache, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = os.path.join(tmp, name)
                argv = [*cc, *_CFLAGS, "-o", built, source]
                run = subprocess.run(argv, capture_output=True, text=True)
                if run.returncode != 0:
                    err = run.stderr.strip()[-400:]
                    return None, f"{shlex.join(cc)} failed (exit {run.returncode}): {err}"
                os.replace(built, lib)  # atomic on one filesystem: none loads a half-written file
        fn = ctypes.CDLL(lib).qknap_row_kernel
    # RuntimeError: _home() finds no home; ValueError: a $CC shlex cannot split
    except (OSError, RuntimeError, ValueError) as exc:
        return None, f"no C row kernel: {exc}"
    fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 3 + [ctypes.c_uint64] * 3
    fn.restype = None

    def kernel(L, item, ks, H, t, W):
        # The C side reads and writes through bare pointers, unchecked: len(L) // R
        # records of R = len(item) words in, up to twice that many out.
        if not (
            all(isinstance(b, array) for b in (L, item))
            and L.typecode + item.typecode == "QQ"
            and 0 <= ks < (R := len(item)) - 1  # the weight, then at least one witness word
            and len(L) % R == 0
            and 1 <= item[ks] < 1 << 63  # added to a weight <= W, it carries out of no word
            and 0 <= t <= W < 1 << 63  # W + 1 marks the dead
        ):
            raise ValueError("row kernel buffers do not fit the row")
        m = len(L) // R
        L_o, F = array("Q", [0]) * (2 * len(L)), array("q", [0]) * (2 * m)
        out = array("q", [0, 0, 0])  # records kept, comparisons, max_cell
        fn(*(b.buffer_info()[0] for b in (L, item, L_o, F, out)), m, R, ks, H, t, W)
        kept, comparisons, max_cell = out
        del L_o[kept * R :]
        return L_o, comparisons, max_cell

    return kernel, f"compiled C row kernel {lib}"
