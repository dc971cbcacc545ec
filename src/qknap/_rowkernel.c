/* One row of the label-set dynamic program (qknap.dp).
 *
 * Compiled on first use by qknap.dp and called through ctypes; the
 * pure-Python twin qknap.dp._row_kernel_py follows it step for step.
 * qknap.dp._lanes lays out a record's R words; the qknap.dp docstring
 * documents the row (L, off), the guard-bit dominance test used below
 * and why the witness words settle ties.
 *
 * The six buffers come first: the row (L, off), the item's record, the
 * next row (L_o, off_o) and out. Then the scalars: W1 columns, the first
 * column lo of the next row, R words a record, ks lane words and the
 * guard mask H of a lane word.
 *
 * a >= b holds lane by lane in a lane word iff ((a | H) - b) & H == H.
 *
 * Column x of the next row merges column x of L (the A records) with
 * column x - wt extended by the item (the B records; none when x < wt),
 * where item is the record that extending adds and wt = item[ks] its
 * weight. The next row holds columns lo..W1-1 of L's, re-based: its
 * column x - lo is column x, and off_o[0] == 0. Each B record is written
 * once into L_o, behind room for the column's A records, as the
 * word-by-word sum of its source and item.
 * Each A record is then compared with each B record as plain records.
 * Equal vectors keep the lighter label, then the one whose witness words
 * compare larger as unsigned integers, word 0 first, which is the
 * smaller sorted id tuple. An A survivor is copied out as soon as its
 * scan ends. A dominated B record is marked in place by a weight of 0,
 * which no extension has (the caller passes wt >= 1), and the unmarked
 * ones move down behind the A survivors.
 *
 * On return out holds pos (records written), the A x B record pairs
 * taken up and the size of the largest column written. Returns 0, or -2
 * if some column x has not off[x] <= off[x + 1] <= off[W1], before it
 * reads or writes outside L or the 2 * off[W1] records of L_o: every
 * column is checked, those below lo too, since they feed B records.
 */
#include <stdint.h>
#include <string.h>

int qknap_row_kernel(const uint64_t *L, const int64_t *off,
                     const uint64_t *item, uint64_t *L_o, int64_t *off_o,
                     int64_t *out, int64_t W1, int64_t lo, int64_t R,
                     int64_t ks, uint64_t H)
{
    int64_t wt = (int64_t)item[ks], pos = 0, comparisons = 0, max_cell = 0;
    size_t size = R * sizeof(uint64_t);
    for (int64_t x = 0; x < W1; x++) {
        if (off[x + 1] < off[x] || off[x + 1] > off[W1])
            return -2;
        if (x < lo)
            continue;
        off_o[x - lo] = pos;
        int64_t ma = off[x + 1] - off[x], mb = 0;
        const uint64_t *A = L + off[x] * R;
        uint64_t *B = L_o + (pos + ma) * R; /* behind room for the A survivors */
        if (x >= wt) { /* else the item does not fit and the cell carries over */
            mb = off[x - wt + 1] - off[x - wt];
            const uint64_t *src = L + off[x - wt] * R;
            for (int64_t i = 0; i < mb * R; i += R)
                for (int64_t q = 0; q < R; q++)
                    B[i + q] = src[i + q] + item[q];
        }
        comparisons += ma * mb;
        uint64_t *end = B + mb * R;
        for (const uint64_t *a = A; a < A + ma * R; a += R) {
            uint64_t *b = B;
            for (; b < end; b += R) {
                int ge_ba = 1, ge_ab = 1;
                for (int64_t q = 0; q < ks && (ge_ba || ge_ab); q++) {
                    ge_ba &= (((b[q] | H) - a[q]) & H) == H;
                    ge_ab &= (((a[q] | H) - b[q]) & H) == H;
                }
                if (ge_ba && ge_ab) { /* equal vectors: the lighter, then the larger words */
                    int64_t q = ks + 1;
                    while (q < R - 1 && a[q] == b[q])
                        q++;
                    ge_ab = a[ks] != b[ks] ? a[ks] < b[ks] : a[q] > b[q];
                    ge_ba = !ge_ab;
                }
                /* Column x of L holds distinct non-dominated vectors, and so
                 * does B. A b marked by an earlier a lies at or below that a,
                 * so it lies at or above no later a and kills none. An a that
                 * some b covers covers no other b, so its scan ends there. */
                if (ge_ba)
                    break;
                if (ge_ab)
                    b[ks] = 0;
            }
            if (b == end)
                memcpy(L_o + pos++ * R, a, size);
        }
        for (const uint64_t *b = B; b < end; b += R)
            if (b[ks])
                memmove(L_o + pos++ * R, b, size);
        if (pos - off_o[x - lo] > max_cell)
            max_cell = pos - off_o[x - lo];
    }
    off_o[W1 - lo] = pos;
    out[0] = pos;
    out[1] = comparisons;
    out[2] = max_cell;
    return 0;
}
