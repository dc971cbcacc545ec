/* One row of the label-set dynamic program (qknap.dp._solve_rows).
 *
 * Compiled on first use by qknap.dp and called through ctypes. Every
 * array is C-contiguous int64. A row's labels are packed: rows
 * off[x]..off[x+1]-1 of S (k suffix sums each), w and rep belong to
 * capacity x. The kernel merges each column x >= wt with column x - wt
 * extended by the item (wt, level, iid) and writes the surviving labels,
 * A side first, to S_o, w_o, rep_o, off_o. Each extended survivor gets a
 * new witness node `top` in the arena (par, itm).
 *
 * Items must arrive in descending id order. Then iid is smaller than
 * every id in an A witness, so when an A label and an extended B label
 * tie in vector and weight (hence in size), B's sorted id tuple is the
 * smaller one: B wins and A is dropped.
 *
 * On return out holds pos (labels written), top, the dominance
 * comparisons made and the largest nonzero cell. Returns 0, or -1 if
 * scratch memory could not be allocated.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

int qknap_row_kernel(const int64_t *S, const int64_t *w, const int64_t *rep,
                     const int64_t *off, int64_t W1, int64_t k, int64_t wt,
                     int64_t level, int64_t iid, int64_t *S_o, int64_t *w_o,
                     int64_t *rep_o, int64_t *off_o, int64_t *par, int64_t *itm,
                     int64_t top, int64_t *out)
{
    int64_t pos = 0, comparisons = 0, max_cell = 0, widest = 1;
    for (int64_t x = 0; x < W1; x++)
        if (off[x + 1] - off[x] > widest)
            widest = off[x + 1] - off[x];
    char *kill_a = malloc(widest);
    char *kill_b = malloc(widest);
    if (!kill_a || !kill_b) {
        free(kill_a);
        free(kill_b);
        return -1;
    }
    for (int64_t x = 0; x < W1; x++) {
        off_o[x] = pos;
        int64_t a0 = off[x];
        int64_t ma = off[x + 1] - a0;
        if (x < wt) { /* item does not fit: cell carries over */
            memcpy(S_o + pos * k, S + a0 * k, ma * k * sizeof(int64_t));
            memcpy(w_o + pos, w + a0, ma * sizeof(int64_t));
            memcpy(rep_o + pos, rep + a0, ma * sizeof(int64_t));
            pos += ma;
            continue;
        }
        int64_t b0 = off[x - wt];
        int64_t mb = off[x - wt + 1] - b0;
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
                if (ge_ba) {
                    /* B kills A unless they tie in vector and A is lighter */
                    if (ge_ab && w[a0 + ai] < w[b0 + bi] + wt)
                        kill_b[bi] = 1;
                    else
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
                rep_o[pos] = rep[a0 + ai];
                pos++;
            }
        }
        for (int64_t bi = 0; bi < mb; bi++) {
            if (!kill_b[bi]) {
                const int64_t *sb = S + (b0 + bi) * k;
                for (int64_t j = 0; j < k; j++)
                    S_o[pos * k + j] = sb[j] + (j < level ? 1 : 0);
                w_o[pos] = w[b0 + bi] + wt;
                par[top] = rep[b0 + bi];
                itm[top] = iid;
                rep_o[pos] = top;
                top++;
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
    out[1] = top;
    out[2] = comparisons;
    out[3] = max_cell;
    return 0;
}
