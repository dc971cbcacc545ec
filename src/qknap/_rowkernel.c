/* One row of the label-set dynamic program (qknap.dp).
 *
 * Compiled on first use by qknap.dp and called through ctypes; the
 * pure-Python twin qknap.dp._row_kernel_py follows it step for step.
 * Every array is C-contiguous: S, w and off int64, M uint64. A row's
 * labels are packed: rows off[x]..off[x+1]-1 of S (k suffix sums each),
 * w and M (nw words each) belong to capacity x. The kernel merges each
 * column x >= wt with column x - wt extended by the item (wt, level,
 * rank) and writes the surviving labels, A side first, to S_o, w_o,
 * M_o, off_o.
 *
 * M holds each label's witness as a bit set over the items ranked by
 * ascending id: rank r is bit 63 - r % 64 of word r / 64. An A label and
 * an extended B label that tie in vector and weight have witnesses of
 * the same size, and the one with the smaller sorted id tuple holds the
 * least id of their symmetric difference, so its words compare larger
 * as unsigned integers, word 0 first. This holds in any item order.
 *
 * On return out holds pos (labels written), the dominance comparisons
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

int qknap_row_kernel(const int64_t *S, const int64_t *w, const uint64_t *M,
                     const int64_t *off, int64_t W1, int64_t k, int64_t nw,
                     int64_t wt, int64_t level, int64_t rank, int64_t *S_o,
                     int64_t *w_o, uint64_t *M_o, int64_t *off_o, int64_t *out)
{
    int64_t pos = 0, comparisons = 0, max_cell = 0, widest = 1;
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
            const int64_t *sa = S + (a0 + ai) * k;
            for (int64_t bi = 0; bi < mb; bi++) {
                const int64_t *sb = S + (b0 + bi) * k;
                int ge_ba = 1, ge_ab = 1;
                for (int64_t j = 0; j < k; j++) {
                    int64_t av = sa[j];
                    int64_t bv = sb[j] + (j < level ? 1 : 0);
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
                    int64_t wa = w[a0 + ai], wb = w[b0 + bi] + wt;
                    if (wa < wb || (wa == wb && wins_tie(M + (a0 + ai) * nw,
                                                         M + (b0 + bi) * nw,
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
        for (int64_t ai = 0; ai < ma; ai++) {
            if (!kill_a[ai]) {
                memcpy(S_o + pos * k, S + (a0 + ai) * k, k * sizeof(int64_t));
                w_o[pos] = w[a0 + ai];
                memcpy(M_o + pos * nw, M + (a0 + ai) * nw, nw * sizeof(uint64_t));
                pos++;
            }
        }
        for (int64_t bi = 0; bi < mb; bi++) {
            if (!kill_b[bi]) {
                const int64_t *sb = S + (b0 + bi) * k;
                for (int64_t j = 0; j < k; j++)
                    S_o[pos * k + j] = sb[j] + (j < level ? 1 : 0);
                w_o[pos] = w[b0 + bi] + wt;
                memcpy(M_o + pos * nw, M + (b0 + bi) * nw, nw * sizeof(uint64_t));
                M_o[pos * nw + word] |= bit;
                pos++;
            }
        }
        int64_t m = pos - off_o[x];
        if (m > max_cell && !(m == 1 && w_o[off_o[x]] == 0))
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
