"""Command-line interface.

Subcommands: solve (exact frontier), greedy (one efficient-ish
solution), enumerate (brute-force oracle), gen (deterministic random
instances), check (dominance verdict between two subsets), bench
(CSV sweep). Results go to stdout, diagnostics to stderr. Instance
files are read by ``qknap.instance_io.read_instance``; solve, enumerate
and greedy write what ``qknap.instance_io`` formats; check and bench
format their own reports.

Exit codes: 0 success, 1 infeasible input subset, 2 input error,
3 resource guard: enumeration guard tripped or out of memory.

Each subcommand imports the modules it needs when it runs, so that a
``solve`` process loads only cli, instance_io, model and dp, and none
of them imports ``dataclasses`` or ``typing`` to do so. argparse is
loaded only when a request needs it: ``main`` first tries ``_served``,
which takes the plain requests ``solve PATH [--matrix] [--json]`` and
``greedy PATH r|w`` itself, and hands every other argv, help and usage
errors included, to ``_build_parser``, which remains the one grammar.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .instance_io import (
    GeneratorParams,
    format_vector,
    frontier_json,
    generate_instance,
    parse_int,
    read_instance,
    serialize_frontier,
    serialize_greedy,
    serialize_instance,
)
from .model import rank_cardinality_vector, total_weight

TYPE_CHECKING = False
if TYPE_CHECKING:  # named in annotations only, which are never evaluated
    import argparse
    from fractions import Fraction

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


def _cmd_enumerate(args) -> int:
    from .oracle import OracleGuardError, enumerate_frontier

    inst = read_instance(args.instance)
    try:
        result = enumerate_frontier(inst, force=args.force)
    except OracleGuardError as exc:
        return _fail(str(exc), EXIT_GUARD)
    sys.stdout.write(frontier_json(result) if args.json else serialize_frontier(result))
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = GeneratorParams(
        n=args.n,
        k=args.k,
        weight_max=args.wmax,
        seed=args.seed,
        capacity=args.capacity,
        ratio=args.ratio,
    )
    sys.stdout.write(serialize_instance(generate_instance(params)))
    return EXIT_OK


def _cmd_check(args) -> int:
    from .dominance import evaluate, falsification_witness, suffix_sums, weakly_dominates

    inst = read_instance(args.instance)
    sub_a, sub_b = frozenset(args.a), frozenset(args.b)
    ga = rank_cardinality_vector(sub_a, inst)
    gb = rank_cardinality_vector(sub_b, inst)
    for name, sub in (("a", sub_a), ("b", sub_b)):
        weight = total_weight(sub, inst)
        if weight > inst.capacity:
            return _fail(
                f"subset {name} is infeasible: weight {weight} > capacity {inst.capacity}",
                EXIT_INFEASIBLE,
            )
    a_over_b, b_over_a = weakly_dominates(ga, gb), weakly_dominates(gb, ga)
    if a_over_b and b_over_a:
        verdict = "equivalent"
    elif a_over_b:
        verdict = "dominates"
    elif b_over_a:
        verdict = "dominated"
    else:
        verdict = "incomparable"
    print(f"verdict={verdict}")
    print(f"suffix_a={format_vector(suffix_sums(ga))}")
    print(f"suffix_b={format_vector(suffix_sums(gb))}")
    if args.witness and not a_over_b:
        witness = falsification_witness(ga, gb, len(inst.items))
        print(f"witness={format_vector(witness.values)}")
        print(f"witness_value_a={evaluate(witness, ga)}")
        print(f"witness_value_b={evaluate(witness, gb)}")
    return EXIT_OK


def _ratio(text: str) -> Fraction:
    """'P/Q' or 'P', each an integer as ``parse_int`` reads it."""
    import argparse
    from fractions import Fraction

    try:
        p, q = map(parse_int, text.split("/")) if "/" in text else (parse_int(text), 1)
        return Fraction(p, q)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid ratio '{text}'") from None


def _int(text: str) -> int:
    import argparse

    try:
        return parse_int(text)
    except ValueError:  # argparse's own words for a failed type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty or blank text is the empty list."""
    import argparse

    try:
        return [parse_int(t) for t in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list '{text}'") from None


def _cmd_bench(args) -> int:
    from itertools import product

    from .dp import label_bound, solve

    key = "capacity" if args.capacity is not None else "ratio"
    # the whole sweep's parameters are checked before the CSV header is printed
    sweep = [
        GeneratorParams(n=n, k=k, weight_max=wmax, seed=seed, **{key: cap})
        for n, k, cap, seed, wmax in product(
            args.n, args.k, getattr(args, key), range(1, args.seeds + 1), args.wmax
        )
    ]
    print("n,k,W,seed,frontier_size,max_cell,label_bound,comparisons,wall_time")
    for params in sweep:
        inst = generate_instance(params)
        result = solve(inst)
        print(
            f"{params.n},{params.k},{inst.capacity},{params.seed},{len(result.labels)},"
            f"{result.stats.max_cell},{label_bound(params.k, params.n)},"
            f"{result.stats.comparisons},{result.stats.wall_time:.6f}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="qknap",
        description="0/1 knapsack with ordinal item levels: exact frontier and greedy solvers.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"qknap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute all non-dominated rank cardinality vectors")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--matrix", action="store_true", help="also dump every DP cell")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("greedy", help="one solution via a lexicographic greedy pass")
    p.add_argument("instance")
    p.add_argument("mode", choices=("r", "w"), help="r: level-major order, w: weight-major order")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("enumerate", help="brute-force frontier (small n only)")
    p.add_argument("instance")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gen", help="emit a deterministic random instance")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    cap = p.add_mutually_exclusive_group(required=True)
    cap.add_argument("--capacity", type=_int)
    cap.add_argument("--ratio", type=_ratio, help="capacity = ceil(ratio * total weight)")
    p.add_argument("--wmax", type=_int, required=True)
    p.add_argument("--seed", type=_int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="dominance verdict between two subsets")
    p.add_argument("instance")
    p.add_argument("--a", type=_int_list, required=True, help="comma-separated item ids")
    p.add_argument("--b", type=_int_list, required=True, help="comma-separated item ids")
    p.add_argument("--witness", action="store_true", help="print a falsifying valuation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "bench",
        help="CSV sweep over generated instances",
        description="One CSV row per generated instance. max_cell and comparisons are"
        " the solve's # stats: they count the merges of its rows, in which a label"
        " counts as weighing at least W less the weight of the items still to come."
        " label_bound is C(k+n, n) - 1, the bound on any cell's size.",
    )
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated list")
    p.add_argument("--k", type=_int_list, required=True)
    cap = p.add_mutually_exclusive_group(required=True)
    cap.add_argument("--capacity", type=_int_list)
    cap.add_argument("--ratio", type=lambda s: [_ratio(t) for t in s.split(",")])
    p.add_argument("--wmax", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int, required=True, help="use seeds 1..N")
    p.set_defaults(func=_cmd_bench)

    return parser


def _served(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` gives a plain solve or greedy request.

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
    args = _served(sys.argv[1:] if argv is None else argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ParseError and InvalidInstanceError among them
        return _fail(str(exc), EXIT_INPUT)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", EXIT_GUARD)


if __name__ == "__main__":
    sys.exit(main())
