"""Text formats and deterministic instance generation.

Instance files are UTF-8 text with ``#`` comments and blank lines
ignored:

    qknap 1
    levels <k>
    capacity <W>
    items <n>
    <id> <weight> <level>        (n lines, items in canonical order)

Every value is a decimal integer, read by ``parse_int``: ASCII digits
after an optional ``-``, the one rule for integers from the command
line too. ``read_instance`` reads such a file and ``parse_instance``
its text.

Every format a solver result is printed in lives here, and the CLI
only writes what these functions return:

- ``serialize_frontier``: one ``vector=... weight=... items=[...]`` line
  per label in canonical order, then a ``#``-prefixed stats block,
  ``# labels=`` followed by one line per ``SolveStats`` field in field
  order, then, when the DP table was kept, one ``cell i x: (..) (..)``
  line per cell, row by row;
- ``frontier_json``: the same frontier, stats and matrix as one JSON
  document;
- ``serialize_greedy``: the one line of a greedy solution.

Random instances come from a splitmix64 stream so that the same
parameters produce byte-identical files everywhere.
"""

from __future__ import annotations

from math import ceil

from .model import FrontierResult, Instance, Item, SolveStats

TYPE_CHECKING = False
if TYPE_CHECKING:  # named in annotations only, which are never evaluated
    from fractions import Fraction
    from typing import Iterable

    from .greedy import GreedyResult

__all__ = [
    "GeneratorParams",
    "ParseError",
    "SplitMix64",
    "format_vector",
    "frontier_json",
    "generate_instance",
    "parse_instance",
    "read_instance",
    "serialize_frontier",
    "serialize_greedy",
    "serialize_instance",
]

_MASK64 = (1 << 64) - 1


class ParseError(ValueError):
    """Syntax or structure error in an instance file, with a line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_int(text: str) -> int:
    """A decimal integer: ASCII digits after an optional '-'.

    Anything else raises ValueError, even what ``int`` accepts, such as
    '+5', ' 5', '1_0' or non-ASCII digits. A negative value is read, so
    that the check that refuses it can name it.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(f"invalid integer '{text}'")


class SplitMix64:
    """The splitmix64 generator; all arithmetic modulo 2**64."""

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, m: int) -> int:
        """Uniform integer in 1..m by rejection below the top multiple of m."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % m + 1


class GeneratorParams:
    """Parameters for deterministic instance generation.

    Exactly one of ``capacity`` (fixed W) or ``ratio`` (W = ceil of
    ratio times the total weight) must be given. Construction checks
    them and raises ValueError on any that is out of range.
    """

    def __init__(
        self,
        n: int,
        k: int,
        weight_max: int,
        seed: int,
        capacity: int | None = None,
        ratio: Fraction | None = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weight_max < 1:
            raise ValueError(f"weight_max must be >= 1, got {weight_max}")
        if (capacity is None) == (ratio is None):
            raise ValueError("exactly one of capacity or ratio must be set")
        if ratio is not None and not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.n, self.k, self.weight_max, self.seed = n, k, weight_max, seed
        self.capacity, self.ratio = capacity, ratio


def generate_instance(p: GeneratorParams) -> Instance:
    """Instance determined by the params: ids 1..n, weights then levels drawn."""
    rng = SplitMix64(p.seed)
    weights = [rng.uniform(p.weight_max) for _ in range(p.n)]
    levels = [rng.uniform(p.k) for _ in range(p.n)]
    if p.capacity is not None:
        cap = p.capacity
    else:
        cap = ceil(p.ratio * sum(weights))
    items = tuple(
        Item(id=i + 1, weight=weights[i], level=levels[i]) for i in range(p.n)
    )
    return Instance(k=p.k, capacity=cap, items=items)


def parse_instance(text: str) -> Instance:
    """Parse the instance format, validating all invariants."""
    fields: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            fields.append((lineno, body.split()))
    if not fields:
        raise ParseError(1, "empty file; expected 'qknap 1' header")

    def take(idx: int, keyword: str) -> int:
        """The value of header line idx, which must read '<keyword> <integer>'."""
        if idx >= len(fields):
            raise ParseError(fields[-1][0], f"unexpected end of file; expected '{keyword}'")
        lineno, toks = fields[idx]
        if toks[0] != keyword:
            raise ParseError(lineno, f"expected '{keyword}', found '{toks[0]}'")
        if len(toks) != 2:
            raise ParseError(lineno, f"'{keyword}' takes exactly one value")
        try:
            return parse_int(toks[1])
        except ValueError:
            raise ParseError(lineno, f"'{keyword}' value must be an integer, found '{toks[1]}'")

    if take(0, "qknap") != 1:
        lineno, (_, version) = fields[0]
        raise ParseError(lineno, f"unsupported format version '{version}'")
    k, capacity, n = take(1, "levels"), take(2, "capacity"), take(3, "items")
    if n < 0:
        raise ParseError(fields[3][0], f"item count must be >= 0, got {n}")

    item_fields = fields[4:]
    if len(item_fields) != n:
        raise ParseError(
            item_fields[n][0] if len(item_fields) > n else fields[-1][0],
            f"item count mismatch: header says {n}, found {len(item_fields)} item lines",
        )
    items = []
    for lineno, toks in item_fields:
        if len(toks) != 3:
            raise ParseError(lineno, f"item line needs 'id weight level', found {len(toks)} fields")
        try:
            ident, weight, level = map(parse_int, toks)
        except ValueError:
            raise ParseError(lineno, f"item line fields must be integers: '{' '.join(toks)}'")
        items.append(Item(id=ident, weight=weight, level=level))
    return Instance(k=k, capacity=capacity, items=tuple(items))


def read_instance(path: str) -> Instance:
    """Read and parse the instance file at ``path``.

    An unreadable file raises ValueError; bytes that are not UTF-8 raise
    ParseError on the line ``parse_instance`` would give them.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read '{path}': {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the same splitlines breaks as parse_instance's
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None
    return parse_instance(text)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: no comments, items in input order, trailing newline."""
    lines = [
        "qknap 1",
        f"levels {inst.k}",
        f"capacity {inst.capacity}",
        f"items {len(inst.items)}",
    ]
    lines.extend(f"{it.id} {it.weight} {it.level}" for it in inst.items)
    return "\n".join(lines) + "\n"


def format_vector(g: Iterable[int | Fraction]) -> str:
    return "(" + ",".join(str(c) for c in g) + ")"


def _format_items(ids: Iterable[int]) -> str:
    return "[" + ",".join(str(i) for i in ids) + "]"


def _stats(result: FrontierResult) -> dict:
    """The label count, then every ``SolveStats`` field in field order."""
    stats = result.stats
    return {"labels": len(result.labels), **{f: getattr(stats, f) for f in SolveStats.__slots__}}


def serialize_frontier(result: FrontierResult) -> str:
    """Label lines in canonical order, the '#' stats block, then any matrix cells."""
    lines = [
        f"vector={format_vector(lab.vector)} weight={lab.weight} items={_format_items(lab.items)}"
        for lab in result.labels
    ]
    lines += [
        f"# {name}={value:.6f}" if isinstance(value, float) else f"# {name}={value}"
        for name, value in _stats(result).items()
    ]
    lines += [
        f"cell {i} {x}:" + "".join(" " + format_vector(lab.vector) for lab in cell)
        for i, row in enumerate(result.matrix or ())
        for x, cell in enumerate(row)
    ]
    return "\n".join(lines) + "\n"


def frontier_json(result: FrontierResult) -> str:
    """The frontier, its stats and any matrix cells' vectors as a JSON document."""
    import json

    doc = {
        "frontier": [
            {"vector": list(lab.vector), "weight": lab.weight, "items": list(lab.items)}
            for lab in result.labels
        ],
        "stats": _stats(result),
    }
    if result.matrix is not None:
        doc["matrix"] = [
            [[list(lab.vector) for lab in cell] for cell in row] for row in result.matrix
        ]
    return json.dumps(doc, indent=2) + "\n"


def serialize_greedy(result: GreedyResult) -> str:
    """The greedy solution's ids ascending, vector, weight and guarantee, on one line."""
    return (
        f"items={_format_items(sorted(result.subset))} vector={format_vector(result.vector)} "
        f"weight={result.weight} guarantee={result.guarantee.value}\n"
    )
