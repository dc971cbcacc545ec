"""The program entry: ``python -m qknap``, the ``qknap`` console script and
``python -m qknap.cli`` all exit through ``run``.

``run`` exits with ``cli.main()``'s code and, on the way out, calls
``gc.freeze()``. That moves every object still alive (the imports, the
instance, the solver's result) to the collector's permanent generation,
so the full collections the interpreter runs as it shuts down skip them.
On Python 3.11 a served ``batch`` request has about 12K such objects,
and freezing them takes about 2 ms off each request. Nothing else about
exit changes: the freeze runs in a ``finally``, after ``main`` has
written its answer and as ``SystemExit`` goes up, so stdout is still
flushed at shutdown, and ``atexit`` handlers, profilers such as
``python -m cProfile -m qknap`` and the exit code (120 when the flush
fails) are as they were.

``cli.main()`` itself never freezes: tests and in-process tracers call it
many times in one long-lived process, whose garbage would then never be
collected.
"""

import gc
import sys

from .cli import main


def run() -> None:
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
