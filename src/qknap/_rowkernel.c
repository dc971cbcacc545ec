/* One row of the label-set dynamic program (qknap.dp).
 *
 * Compiled on first use by qknap.ckernel and called through ctypes; the
 * pure-Python twin qknap.dp._row_kernel_py follows it step for step.
 * qknap.dp._lanes lays out a record's R words; the qknap.dp docstring
 * documents the row, its clamp t, the guard-bit dominance test used
 * below and why the witness words settle ties.
 *
 * The five buffers come first: the row L, the item's record, the next
 * row L_o, the prefix frontier F and out. Then the scalars: m records in
 * L, R words a record, ks lane words, the guard mask H of a lane word,
 * the next row's clamp t and the capacity W.
 *
 * a >= b holds lane by lane in a lane word iff ((a | H) - b) & H == H.
 *
 * L is sorted by clamped weight max(weight, t). The candidates are its
 * records (A) and their sums with item (B), where wt = item[ks] is the
 * item's weight; the B records heavier than W form a suffix of B and
 * are dropped. A and B are taken in order of clamped weight, A first
 * on a tie, and each is written into L_o at pos, the next free record.
 * F holds the record numbers, in L_o, of the kept labels that no other
 * kept label covers. Equal vectors cover by the lighter label, then by
 * the witness words that compare larger as unsigned integers, word 0
 * first, which is the smaller sorted id tuple. A covered candidate is
 * dropped, pos stays, and its scan ends there. A kept one moves pos past
 * it and takes out of F what it covers; what it covers at its own
 * clamped weight it marks dead by a weight of W + 1, which no label has,
 * and the dead are removed at the end.
 *
 * Every index is a count of records that C itself took up: at most 2m
 * records are written into L_o and at most 2m record numbers into F,
 * and the caller allocates both. On return out holds the records kept,
 * the candidate x F pairs the scans took up and the largest F at a
 * change of clamped weight or at the end.
 */
#include <stdint.h>
#include <string.h>

static uint64_t clamp(uint64_t w, uint64_t t) { return w > t ? w : t; }

void qknap_row_kernel(const uint64_t *L, const uint64_t *item, uint64_t *L_o,
                      int64_t *F, int64_t *out, int64_t m, int64_t R,
                      int64_t ks, uint64_t H, uint64_t t, uint64_t W)
{
    uint64_t wt = item[ks], last = 0;
    int64_t mb = m, nF = 0, pos = 0, comparisons = 0, max_cell = 0;
    size_t size = R * sizeof(uint64_t);
    while (mb > 0 && L[(mb - 1) * R + ks] + wt > W)
        mb--;
    for (int64_t i = 0, j = 0; i < m || j < mb;) {
        uint64_t *c = L_o + pos * R;
        if (j == mb || (i < m && clamp(L[i * R + ks], t) <= clamp(L[j * R + ks] + wt, t)))
            memcpy(c, L + i++ * R, size);
        else
            for (int64_t q = 0, b = j++ * R; q < R; q++)
                c[q] = L[b + q] + item[q];
        uint64_t w = clamp(c[ks], t);
        if (w != last) {
            if (nF > max_cell)
                max_cell = nF;
            last = w;
        }
        int64_t *f = F, *g = F;
        for (; f < F + nF; f++) {
            uint64_t *r = L_o + *f * R;
            int ge_rc = 1, ge_cr = 1;
            comparisons++;
            for (int64_t q = 0; q < ks && (ge_rc || ge_cr); q++) {
                ge_rc &= (((r[q] | H) - c[q]) & H) == H;
                ge_cr &= (((c[q] | H) - r[q]) & H) == H;
            }
            if (ge_rc && ge_cr) { /* equal vectors: the lighter, then the larger words */
                int64_t q = ks + 1;
                while (q < R - 1 && r[q] == c[q])
                    q++;
                ge_rc = r[ks] != c[ks] ? r[ks] < c[ks] : r[q] > c[q];
                ge_cr = !ge_rc;
            }
            if (ge_rc) /* F is an antichain: a c that one r covers covers none of it */
                break;
            if (!ge_cr)
                *g++ = *f;
            else if (clamp(r[ks], t) == w)
                r[ks] = W + 1;
        }
        if (f == F + nF) {
            nF = g - F;
            F[nF++] = pos++;
        }
    }
    if (nF > max_cell)
        max_cell = nF;
    int64_t kept = 0;
    for (int64_t p = 0; p < pos; p++)
        if (L_o[p * R + ks] <= W)
            memmove(L_o + kept++ * R, L_o + p * R, size);
    out[0] = kept;
    out[1] = comparisons;
    out[2] = max_cell;
}
