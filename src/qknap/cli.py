"""Command-line interface: the program's served path.

Subcommands: solve (exact frontier), greedy (one efficient-ish
solution), enumerate (brute-force oracle), gen (deterministic random
instances), check (dominance verdict between two subsets), bench
(CSV sweep). Results go to stdout, diagnostics to stderr. Instance
files are read by ``qknap.instance_io.read_instance``; solve, enumerate
and greedy write what ``qknap.instance_io`` formats; check and bench
format their own reports.

Exit codes: 0 success, 1 infeasible input subset, 2 input error,
3 resource guard: enumeration guard tripped or out of memory.

This module holds only what a served request runs: ``main``,
``_served``, ``_fail``, the exit codes and the solve and greedy
subcommands. ``main`` first tries ``_served``, which takes the plain
requests ``solve PATH [--matrix] [--json]`` and ``greedy PATH r|w``
itself, and hands every other argv, help and usage errors included, to
``qknap.commands._build_parser``, the one grammar, which it imports
only then. ``qknap.commands`` also holds the other subcommands, so a
served request neither compiles them nor imports argparse. Each
subcommand imports the modules it needs when it runs, so that a
``solve`` process loads only cli, instance_io, model and dp, and
ckernel or twin for the sweep it runs. No qknap module imports
``dataclasses`` or ``typing``.

``main`` returns the exit code and leaves the process as it found it.
The program entry is ``qknap.__main__.run``, which ``python -m qknap``,
the ``qknap`` console script and ``python -m qknap.cli`` all go
through: it exits with ``main()``'s code and freezes the garbage
collector's heap on the way out.
"""

import sys
from types import SimpleNamespace

from .instance_io import frontier_json, read_instance, serialize_frontier, serialize_greedy

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    from .dp import solve

    inst = read_instance(args.instance)
    result = solve(inst, keep_matrix=args.matrix)
    sys.stdout.write(frontier_json(result) if args.json else serialize_frontier(result))
    return EXIT_OK


def _cmd_greedy(args) -> int:
    from .greedy import greedy_r, greedy_w

    inst = read_instance(args.instance)
    result = greedy_r(inst) if args.mode == "r" else greedy_w(inst)
    sys.stdout.write(serialize_greedy(result))
    return EXIT_OK


def _served(argv: list[str]) -> SimpleNamespace | None:
    """What ``commands._build_parser().parse_args(argv)`` gives a plain solve or greedy request.

    Served: ``solve PATH`` with any of ``--matrix`` and ``--json`` after
    it, and ``greedy PATH r|w``, where PATH does not start with '-'.
    Anything else is None, for argparse to parse.
    """
    if len(argv) < 2 or argv[1].startswith("-"):
        return None
    command, instance, *rest = argv
    if command == "solve" and set(rest) <= {"--matrix", "--json"}:
        flags = {"matrix": "--matrix" in rest, "json": "--json" in rest}
        return SimpleNamespace(command=command, instance=instance, **flags, func=_cmd_solve)
    if command == "greedy" and rest in (["r"], ["w"]):
        return SimpleNamespace(command=command, instance=instance, mode=rest[0], func=_cmd_greedy)
    return None


def main(argv: list[str] | None = None) -> int:
    args = _served(sys.argv[1:] if argv is None else argv)
    if args is None:
        from .commands import _build_parser

        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and InvalidInstanceError among them
        return _fail(str(exc), EXIT_INPUT)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", EXIT_GUARD)


if __name__ == "__main__":
    from qknap.__main__ import run

    run()
