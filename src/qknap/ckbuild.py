"""Building the C sweep, ``_rowkernel.c``, into the kernel cache.

``qknap.ckernel._load_row_kernel`` imports this module only when no
build is cached, so a process that loads a cached build never compiles
it, nor imports ``shlex``, ``shutil`` or ``sysconfig``. The loader
passes ``build`` the compiler flags, which are part of its cache key, so
this module imports nothing from ``qknap``. A compiler or a
``Python.h`` that is not there is found missing before ``subprocess``
and ``tempfile`` are imported or anything is written.
"""

import os
import shlex
import shutil
import sysconfig


def _compiler() -> list[str]:
    """The command that builds the kernel: ``$CC``, else ``cc``."""
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def build(source: str, lib: str, flags: tuple[str, ...]) -> str | None:
    """Compile ``source`` into ``lib`` with ``flags``; None once built, else why it was not.

    The build compiles into a temporary directory beside ``lib`` and is
    renamed into place. ``shlex`` raises ValueError for a ``$CC`` it
    cannot split, and an OSError may stop the build on the way.
    """
    cache, name = os.path.split(lib)
    cc = _compiler()
    if shutil.which(cc[0]) is None:
        return f"no C compiler {shlex.join(cc)} to build {name}"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"no Python.h in {include} to build {name}"
    import subprocess
    import tempfile

    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = os.path.join(tmp, name)
        argv = [*cc, *flags, f"-I{include}", "-o", built, source]
        run = subprocess.run(argv, capture_output=True, text=True)
        if run.returncode != 0:
            err = run.stderr.strip()[-400:]
            return f"{shlex.join(cc)} failed (exit {run.returncode}): {err}"
        os.replace(built, lib)  # atomic on one filesystem: none loads a half-written file
    return None
