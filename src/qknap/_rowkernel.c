/* One row of the label-set dynamic program (qknap.dp).
 *
 * Compiled on first use by qknap.dp and called through ctypes; the
 * pure-Python twin qknap.dp._row_kernel_py follows it step for step.
 * A row is two C-contiguous arrays: L of uint64 and off of int64. L
 * holds one record of R = k + 1 + nw words per label: the k suffix
 * sums, the weight, then the nw witness words. Records off[x]..off[x+1]-1
 * belong to capacity x. The kernel merges each column x >= wt with
 * column x - wt extended by the item (wt, level, rank) and writes the
 * surviving records, A side first, to L_o and their offsets to off_o.
 *
 * The witness words hold a bit set over the items ranked by ascending
 * id: rank r is bit 63 - r % 64 of word r / 64. An A label and an
 * extended B label that tie in vector and weight have witnesses of the
 * same size, and the one with the smaller sorted id tuple holds the
 * least id of their symmetric difference, so its words compare larger
 * as unsigned integers, word 0 first. This holds in any item order.
 *
 * On return out holds pos (records written), the dominance comparisons
 * made and the largest nonzero cell. Returns 0, -1 if scratch memory
 * could not be allocated, or -2, before any allocation or write, if the
 * offsets decrease somewhere.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Whether witness a has the smaller sorted id tuple than b plus the item. */
static int wins_tie(const uint64_t *a, const uint64_t *b, int64_t nw,
                    int64_t word, uint64_t bit)
{
    for (int64_t q = 0; q < nw; q++) {
        uint64_t bq = b[q] | (q == word ? bit : 0);
        if (a[q] != bq)
            return a[q] > bq;
    }
    return 0;
}

int qknap_row_kernel(const uint64_t *L, const int64_t *off, int64_t W1,
                     int64_t k, int64_t nw, int64_t wt, int64_t level,
                     int64_t rank, uint64_t *L_o, int64_t *off_o, int64_t *out)
{
    int64_t R = k + 1 + nw, pos = 0, comparisons = 0, max_cell = 0, widest = 1;
    int64_t word = rank / 64;
    uint64_t bit = (uint64_t)1 << (63 - rank % 64);
    for (int64_t x = 0; x < W1; x++) {
        if (off[x + 1] < off[x])
            return -2;
        if (off[x + 1] - off[x] > widest)
            widest = off[x + 1] - off[x];
    }
    char *kill_a = malloc(widest);
    char *kill_b = malloc(widest);
    if (!kill_a || !kill_b) {
        free(kill_a);
        free(kill_b);
        return -1;
    }
    for (int64_t x = 0; x < W1; x++) {
        off_o[x] = pos;
        int64_t a0 = off[x], ma = off[x + 1] - a0, b0 = 0, mb = 0;
        if (x >= wt) { /* else the item does not fit and the cell carries over */
            b0 = off[x - wt];
            mb = off[x - wt + 1] - b0;
        }
        comparisons += ma * mb;
        memset(kill_a, 0, ma);
        memset(kill_b, 0, mb);
        for (int64_t ai = 0; ai < ma; ai++) {
            const uint64_t *a = L + (a0 + ai) * R;
            for (int64_t bi = 0; bi < mb; bi++) {
                const uint64_t *b = L + (b0 + bi) * R;
                int ge_ba = 1, ge_ab = 1;
                for (int64_t j = 0; j < k; j++) {
                    uint64_t av = a[j];
                    uint64_t bv = b[j] + (j < level ? 1 : 0);
                    if (bv < av) {
                        ge_ba = 0;
                        if (!ge_ab)
                            break;
                    }
                    if (av < bv) {
                        ge_ab = 0;
                        if (!ge_ba)
                            break;
                    }
                }
                if (ge_ba && ge_ab) {
                    /* equal vectors: the lighter witness, then the smaller id tuple */
                    uint64_t wa = a[k], wb = b[k] + wt;
                    if (wa < wb || (wa == wb && wins_tie(a + k + 1, b + k + 1,
                                                         nw, word, bit)))
                        kill_b[bi] = 1;
                    else
                        kill_a[ai] = 1;
                } else if (ge_ba) {
                    kill_a[ai] = 1;
                } else if (ge_ab) {
                    kill_b[bi] = 1;
                }
            }
        }
        for (int64_t ai = 0; ai < ma; ai++)
            if (!kill_a[ai])
                memcpy(L_o + pos++ * R, L + (a0 + ai) * R, R * sizeof(uint64_t));
        for (int64_t bi = 0; bi < mb; bi++) {
            if (!kill_b[bi]) {
                uint64_t *e = L_o + pos++ * R;
                memcpy(e, L + (b0 + bi) * R, R * sizeof(uint64_t));
                for (int64_t j = 0; j < k && j < level; j++)
                    e[j]++;
                e[k] += wt;
                e[k + 1 + word] |= bit;
            }
        }
        int64_t m = pos - off_o[x];
        if (m > max_cell && !(m == 1 && L_o[off_o[x] * R + k] == 0))
            max_cell = m;
    }
    off_o[W1] = pos;
    free(kill_a);
    free(kill_b);
    out[0] = pos;
    out[1] = comparisons;
    out[2] = max_cell;
    return 0;
}
