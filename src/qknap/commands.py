"""The subcommands and the grammar that ``qknap.cli._served`` does not take.

``_build_parser`` is the one argparse grammar of the command line:
every subcommand, ``--help``, ``--version``, abbreviations and usage
errors. ``qknap.cli.main`` imports this module only for an argv that
``_served`` does not match, so a plain ``solve`` or ``greedy`` request
never compiles or runs it, and never imports argparse. The grammar's
``solve`` and ``greedy`` run ``cli._cmd_solve`` and ``cli._cmd_greedy``,
the same functions a served request runs; the other subcommands,
enumerate, gen, check and bench, and the argparse types ``_int``,
``_int_list`` and ``_ratio`` live here. This module imports ``cli``;
``cli`` must import it only inside ``main``, or importing either module
first would find the other half-built.
"""

import argparse
import sys

from .cli import EXIT_GUARD, EXIT_INFEASIBLE, EXIT_OK, _cmd_greedy, _cmd_solve, _fail
from .instance_io import (
    GeneratorParams,
    format_vector,
    frontier_json,
    generate_instance,
    parse_int,
    read_instance,
    serialize_frontier,
    serialize_instance,
)
from .model import rank_cardinality_vector, total_weight

TYPE_CHECKING = False
if TYPE_CHECKING:  # named in quoted annotations only, which are never evaluated
    from fractions import Fraction


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
        print(f"witness={format_vector(witness)}")
        print(f"witness_value_a={evaluate(witness, ga)}")
        print(f"witness_value_b={evaluate(witness, gb)}")
    return EXIT_OK


def _ratio(text: str) -> "Fraction":
    """'P/Q' or 'P', each an integer as ``parse_int`` reads it."""
    from fractions import Fraction

    try:
        p, q = map(parse_int, text.split("/")) if "/" in text else (parse_int(text), 1)
        return Fraction(p, q)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid ratio '{text}'") from None


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:  # argparse's own words for a failed type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty or blank text is the empty list."""
    try:
        return [parse_int(t) for t in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list '{text}'") from None


def _cmd_bench(args) -> int:
    from itertools import product

    from .dp import label_bound, solve

    key = "capacity" if args.capacity is not None else "ratio"
    # the whole sweep's parameters are checked before the CSV header is printed
    if args.seeds < 0:
        raise ValueError(f"seeds must be >= 0, got {args.seeds}")
    sweep = [
        GeneratorParams(n=n, k=k, weight_max=wmax, seed=seed, **{key: cap})
        for n, k, cap, seed, wmax in product(
            args.n, args.k, getattr(args, key), range(1, args.seeds + 1), args.wmax
        )
    ]
    insts = [generate_instance(params) for params in sweep]
    print("n,k,W,seed,frontier_size,max_cell,label_bound,comparisons,wall_time")
    for params, inst in zip(sweep, insts):
        result = solve(inst)
        print(
            f"{params.n},{params.k},{inst.capacity},{params.seed},{len(result.labels)},"
            f"{result.stats.max_cell},{label_bound(params.k, params.n)},"
            f"{result.stats.comparisons},{result.stats.wall_time:.6f}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
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
