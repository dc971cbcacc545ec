"""The pure-Python twin of the C sweep, which ``qknap.dp`` describes.

``qknap.dp`` imports this module only for a solve the twin runs: one of
fewer than ``dp._KERNEL_MIN_CELLS`` cells, or any when no C kernel
loads. So a C solve never compiles it.
"""

from array import array
from operator import add


def sweep(items, ts, ks, H, W, keep):
    """Pure-Python twin of the C sweep (``_rowkernel.c``), with its arguments and results.

    A label is its ks lane words as one integer, word q at bit 64q, and
    its record's words. Dominance is tested on the integer with the guard
    bits of every word in ``HH``: no borrow crosses a lane, so the test
    holds across words as it does within one, and extending adds ``INC``.
    """
    R, HH = ks + 1, sum(H << 64 * q for q in range(ks))
    flat = lambda row: array("Q", [v for _, c in row for v in c]).tobytes()
    row, rows, comparisons, max_cell = [(0, [0] * R)], [], 0, 0  # row 0: the zero label
    for o, t in zip(range(0, len(items), R), ts):
        if keep:  # copied now: the merge marks the dead in place
            rows.append(flat(row))
        item = items[o : o + R].tolist()
        wt, INC = item[ks], sum(v << 64 * q for q, v in enumerate(item[:ks]))
        B = [(s + INC, list(map(add, a, item))) for s, a in row if a[ks] + wt <= W]
        kept, F, last = [], [], 0
        for s, c in sorted(row + B, key=lambda cand: max(cand[1][ks], t)):  # stable: A first on a tie
            w = max(c[ks], t)
            if w != last:
                max_cell, last = max(max_cell, len(F)), w
            rest = []
            for f in F:
                comparisons += 1
                sf, r = f
                if sf == s:  # equal vectors: the lighter, then the one in F
                    if r[ks] <= c[ks]:
                        break
                elif ((sf | HH) - s) & HH == HH:
                    break  # F is an antichain: a c that one f covers covers none of it
                elif ((s | HH) - sf) & HH != HH:
                    rest.append(f)
                    continue
                if max(r[ks], t) == w:
                    r[ks] = W + 1  # dead: covered at its own clamped weight, and no label weighs W + 1
            else:
                F = rest + [(s, c)]
                kept.append(F[-1])
        max_cell = max(max_cell, len(F))
        row = [(s, c) for s, c in kept if c[ks] <= W]  # the dead leave
    return [*rows, flat(row)], comparisons, max_cell
