"""Checks every answer the benchmark receives from `qknap`.

An answer is the stdout of one request. Frontier answers are checked
label by label (witness ids exist, weights and per-level counts match,
weight fits), as a whole (canonical order, labels mutually
non-dominated, greedy_r's vector present) and, where the instance is
small enough, against the brute-force oracle exactly. For the default
seed every answer's non-`#` lines must also match a stored digest, so
the byte-identical output rule holds where the oracle cannot run.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from fractions import Fraction

from qknap import (
    FrontierResult,
    GeneratorParams,
    Instance,
    Label,
    SolveStats,
    enumerate_frontier,
    generate_instance,
    greedy_r,
    serialize_frontier,
    weakly_dominates,
)
from qknap.model import canonical_key

_LABEL = re.compile(r"vector=\(([\d,]*)\) weight=(\d+) items=\[([\d,]*)\]")
_CELL = re.compile(r"cell (\d+) (\d+):((?: \([\d,]*\))*)")
_VEC = re.compile(r"\(([\d,]*)\)")
_GREEDY = re.compile(r"items=\[([\d,]*)\] vector=\(([\d,]*)\) weight=(\d+) guarantee=(\w+)")


@dataclass
class Reference:
    """What an instance's answers are checked against.

    ``frontier`` is the oracle's answer when the instance is small
    enough, otherwise the last accepted `solve` answer (used to check
    greedy answers). ``digests`` maps a request kind to the digest its
    answer must have; it is empty for seeds without stored digests.
    """

    inst: Instance
    greedy_vector: tuple[int, ...]
    oracle: tuple[Label, ...] | None = None
    frontier: tuple[Label, ...] | None = None
    digests: dict[str, str] = field(default_factory=dict)


def make_reference(inst: Instance, use_oracle: bool, digests: dict[str, str]) -> Reference:
    oracle = enumerate_frontier(inst).labels if use_oracle else None
    return Reference(inst, greedy_r(inst).vector, oracle, oracle, digests)


def output_digest(text: str) -> str:
    """sha256 of the answer's non-`#` lines: the part that must stay byte-identical."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def _witness_errors(inst: Instance, vector, weight: int, items) -> list[str]:
    where = f"vector={vector} weight={weight} items={list(items)}"
    if list(items) != sorted(set(items)):
        return [f"{where}: witness ids not strictly ascending"]
    members = [inst.by_id.get(i) for i in items]
    if None in members:
        return [f"{where}: witness names an unknown id"]
    errors = []
    if sum(it.weight for it in members) != weight:
        errors.append(f"{where}: witness weighs {sum(it.weight for it in members)}")
    if weight > inst.capacity:
        errors.append(f"{where}: exceeds capacity {inst.capacity}")
    counts = [0] * inst.k
    for it in members:
        counts[it.level - 1] += 1
    if tuple(counts) != tuple(vector):
        errors.append(f"{where}: witness counts are {tuple(counts)}")
    return errors


def _antichain_errors(vectors) -> list[str]:
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            u, v = vectors[a], vectors[b]
            if weakly_dominates(u, v) or weakly_dominates(v, u):
                return [f"labels {u} and {v} are comparable"]
    return []


def check_frontier(ref: Reference, labels: list[Label]) -> list[str]:
    errors = []
    for lab in labels:
        if len(lab.vector) != ref.inst.k:
            return [f"vector {lab.vector} does not have k={ref.inst.k} entries"]
        errors += _witness_errors(ref.inst, lab.vector, lab.weight, lab.items)
    if labels != sorted(labels, key=canonical_key):
        errors.append("labels are not in canonical order")
    errors += _antichain_errors([lab.vector for lab in labels])
    if ref.greedy_vector not in {lab.vector for lab in labels} and any(ref.greedy_vector):
        errors.append(f"greedy_r vector {ref.greedy_vector} missing from the frontier")
    if ref.oracle is not None and tuple(labels) != ref.oracle:
        errors.append(f"frontier differs from the oracle's ({len(labels)} vs {len(ref.oracle)} labels)")
    return errors


def _parse_solve(text: str):
    labels, cells = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if m := _LABEL.fullmatch(line):
            labels.append(Label(_ints(m[1]), int(m[2]), _ints(m[3])))
        elif m := _CELL.fullmatch(line):
            cells.append(((int(m[1]), int(m[2])), [_ints(v) for v in _VEC.findall(m[3])]))
        else:
            raise ValueError(f"unrecognised output line {line[:80]!r}")
    return labels, cells


def _matrix_errors(ref: Reference, labels: list[Label], cells) -> list[str]:
    n, W = ref.inst.n, ref.inst.capacity
    want = [(i, x) for i in range(n + 1) for x in range(W + 1)]
    if [pos for pos, _ in cells] != want:
        return [f"matrix has {len(cells)} cells, not {len(want)} in row-major order"]
    if any(vecs for (i, _), vecs in cells if i == 0):
        return ["matrix row 0 is not empty"]
    if cells[-1][1] != [lab.vector for lab in labels]:
        return ["matrix cell (n, W) differs from the frontier"]
    for pos, vecs in cells:
        if errors := _antichain_errors(vecs):
            return [f"cell {pos}: {errors[0]}"]
    return []


def _greedy_errors(ref: Reference, mode: str, text: str) -> list[str]:
    m = _GREEDY.fullmatch(text.rstrip("\n"))
    if m is None:
        return [f"unrecognised greedy output {text[:80]!r}"]
    items, vector, weight, guarantee = _ints(m[1]), _ints(m[2]), int(m[3]), m[4]
    errors = _witness_errors(ref.inst, vector, weight, items)
    efficient = guarantee in ("Efficient", "EfficientBecauseFull")
    want = "Efficient" if mode == "r" else (
        "EfficientBecauseFull" if weight == ref.inst.capacity else "NoGuarantee"
    )
    if guarantee != want:
        errors.append(f"guarantee {guarantee}, expected {want}")
    if ref.frontier is not None and any(vector):
        vectors = [lab.vector for lab in ref.frontier]
        if efficient and vector not in vectors:
            errors.append(f"efficient greedy vector {vector} is not on the frontier")
        if not any(weakly_dominates(v, vector) for v in vectors):
            errors.append(f"greedy vector {vector} is not covered by the frontier")
    return errors


def check_answer(ref: Reference, kind: str, text: str) -> list[str]:
    """Errors found in one answer of the given request kind; empty when it is correct."""
    want = ref.digests.get(kind)
    errors = [] if want is None or output_digest(text) == want else ["output digest differs"]
    if kind.startswith("greedy"):
        return errors + _greedy_errors(ref, kind.split()[1], text)
    try:
        labels, cells = _parse_solve(text)
    except ValueError as exc:
        return errors + [str(exc)]
    errors += check_frontier(ref, labels)
    if kind == "solve --matrix":
        errors += _matrix_errors(ref, labels, cells)
    elif cells:
        errors.append("plain solve printed matrix cells")
    if not errors and ref.oracle is None:
        ref.frontier = tuple(labels)
    return errors


def self_test() -> dict[str, bool]:
    """Feed the checker corrupted answers; maps each case to whether it was rejected.

    The uncorrupted answer is included as ``clean`` and must be accepted
    (its value is then False). The instance is small enough for the oracle
    and its frontier has a label other than greedy_r's, so dropping that
    label is caught only by the oracle comparison.
    """
    inst = generate_instance(GeneratorParams(n=12, k=4, weight_max=9, seed=2, ratio=Fraction(1, 2)))
    ref = make_reference(inst, use_oracle=True, digests={})
    labels = list(ref.oracle)
    spare = next(i for i, lab in enumerate(labels) if lab.vector != ref.greedy_vector)
    victim = max(labels, key=lambda lab: len(lab.items))
    at = labels.index(victim)
    out = inst.by_id[victim.items[0]]
    swap_in = next(it for it in inst.items if it.id not in victim.items and it.weight != out.weight)
    rest = victim.items[1:]
    cases = {
        "clean": labels,
        "swapped_id": labels[:at] + [Label(victim.vector, victim.weight, tuple(sorted(rest + (swap_in.id,))))]
        + labels[at + 1:],
        "wrong_weight": labels[:at] + [Label(victim.vector, victim.weight + 1, victim.items)] + labels[at + 1:],
        "dominated_label": sorted(
            labels + [Label(
                tuple(c - (out.level == j + 1) for j, c in enumerate(victim.vector)),
                victim.weight - out.weight,
                rest,
            )],
            key=canonical_key,
        ),
        "dropped_label": labels[:spare] + labels[spare + 1:],
    }
    return {
        name: bool(check_answer(ref, "solve", serialize_frontier(FrontierResult(tuple(c), SolveStats()))))
        for name, c in cases.items()
    }
