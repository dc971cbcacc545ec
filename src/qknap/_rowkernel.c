/* One row of the label-set dynamic program (qknap.dp).
 *
 * Compiled on first use by qknap.dp and called through ctypes; the
 * pure-Python twin qknap.dp._row_kernel_py follows it step for step.
 * The qknap.dp docstring documents the row (L, off), its records of
 * R = ks + 1 + nw words, the lanes and the witness bit sets.
 *
 * The k suffix sums of a label sit in lanes of `lane` bits, per =
 * 64 / lane to a word, in ks = ceil(k / per) words; the top bit of each
 * lane is a guard, clear in every record. H marks the guard bits, ones
 * the low bit of every lane. a >= b holds lane by lane in a word iff
 * ((a | H) - b) & H == H: each lane computes a + 2^(lane-1) - b, which
 * is never negative, so no borrow crosses into the next lane.
 *
 * Column x of the next row merges column x of L (the A labels) with
 * column x - wt extended by the item (wt, level, rank) (the B labels;
 * none when x < wt). The B records are copied once into L_o, behind
 * room for the column's A records, and extended there: one added to
 * lanes 0..level-1 (ones to each of the first level / per words, part,
 * the low level % per lanes of ones, to the next), weight plus wt, the
 * item's witness bit set. Each A record is then compared with each
 * extended record as plain records. Equal vectors keep the lighter
 * label, then the one whose witness words compare larger as unsigned
 * integers, word 0 first, which is the smaller sorted id tuple. An A
 * survivor is copied out as soon as its scan ends. A dominated B record
 * is marked in place by a weight of 0, which no extension has (the
 * caller passes wt >= 1), and the unmarked ones move down behind the A
 * survivors.
 *
 * On return out holds pos (records written), the dominance comparisons
 * made and the size of the largest column. Returns 0, or -2 if column
 * x has not off[x] <= off[x + 1] <= off[W1], before it reads or writes
 * outside L or the 2 * off[W1] records of L_o.
 */
#include <stdint.h>
#include <string.h>

int qknap_row_kernel(const uint64_t *L, const int64_t *off, int64_t W1,
                     int64_t k, int64_t lane, int64_t nw, int64_t wt,
                     int64_t level, int64_t rank, uint64_t *L_o,
                     int64_t *off_o, int64_t *out)
{
    int64_t per = 64 / lane, ks = k / per + (k % per != 0);
    int64_t R = ks + 1 + nw, pos = 0, comparisons = 0, max_cell = 0;
    int64_t word = ks + 1 + rank / 64, full = level / per;
    uint64_t bit = (uint64_t)1 << (63 - rank % 64), ones = 0;
    for (int64_t i = 0; i < per; i++)
        ones |= (uint64_t)1 << i * lane;
    uint64_t H = ones << (lane - 1);
    uint64_t part = ones & (((uint64_t)1 << level % per * lane) - 1);
    size_t size = R * sizeof(uint64_t);
    for (int64_t x = 0; x < W1; x++) {
        if (off[x + 1] < off[x] || off[x + 1] > off[W1])
            return -2;
        off_o[x] = pos;
        int64_t ma = off[x + 1] - off[x], mb = 0;
        const uint64_t *A = L + off[x] * R;
        uint64_t *B = L_o + (pos + ma) * R; /* behind room for the A survivors */
        if (x >= wt) { /* else the item does not fit and the cell carries over */
            mb = off[x - wt + 1] - off[x - wt];
            memcpy(B, L + off[x - wt] * R, mb * size);
        }
        for (uint64_t *e = B; e < B + mb * R; e += R) {
            for (int64_t q = 0; q < ks; q++)
                e[q] += q < full ? ones : q == full ? part : 0;
            e[ks] += wt;
            e[word] |= bit;
        }
        comparisons += ma * mb;
        for (const uint64_t *a = A; a < A + ma * R; a += R) {
            int kill_a = 0;
            for (uint64_t *b = B; b < B + mb * R; b += R) {
                int ge_ba = 1, ge_ab = 1;
                for (int64_t q = 0; q < ks && (ge_ba || ge_ab); q++) {
                    ge_ba &= (((b[q] | H) - a[q]) & H) == H;
                    ge_ab &= (((a[q] | H) - b[q]) & H) == H;
                }
                /* A marked b is never read here again: column x of L holds
                 * distinct non-dominated vectors, so no later a equals or
                 * lies below a b that an earlier a has covered. */
                if (ge_ba && ge_ab) { /* equal vectors: the lighter, then the larger words */
                    int64_t q = ks + 1;
                    while (q < R - 1 && a[q] == b[q])
                        q++;
                    ge_ab = a[ks] != b[ks] ? a[ks] < b[ks] : a[q] > b[q];
                    ge_ba = !ge_ab;
                }
                if (ge_ba)
                    kill_a = 1;
                else if (ge_ab)
                    b[ks] = 0;
            }
            if (!kill_a)
                memcpy(L_o + pos++ * R, a, size);
        }
        for (const uint64_t *b = B; b < B + mb * R; b += R)
            if (b[ks])
                memmove(L_o + pos++ * R, b, size);
        if (pos - off_o[x] > max_cell)
            max_cell = pos - off_o[x];
    }
    off_o[W1] = pos;
    out[0] = pos;
    out[1] = comparisons;
    out[2] = max_cell;
    return 0;
}
