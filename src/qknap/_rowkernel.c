/* The label-set dynamic program's sweep (qknap.dp), as a CPython extension.
 *
 * Built on first use by qknap.ckbuild and loaded by qknap.ckernel as the
 * module qknap._rowkernel; the pure-Python twin qknap.twin.sweep follows
 * it step for step. qknap.dp._lanes lays out a record's R = ks + 1 words:
 * the ks lane words, then the weight. The qknap.dp docstring documents
 * the row, its clamp t, the guard-bit dominance test used below and why
 * a label needs no more than its vector and weight.
 *
 * sweep(items, ts, ks, H, W, keep) takes the n item records as one
 * array("Q") of n * R words, the n rows' clamps t as one array("Q"), ks
 * lane words a record, the guard mask H of a lane word, the capacity W
 * and a keep-rows flag. Starting from row 0, the zero label, it merges
 * one row per item and returns (rows, comparisons, max_cell): rows is a
 * list of bytes, every row from row 0 with keep, else the last row
 * alone. It refuses, with ValueError, any buffer or scalar that does
 * not fit before it reads a record, and grows its own buffers, with
 * MemoryError when it cannot.
 *
 * a >= b holds lane by lane in a lane word iff ((a | H) - b) & H == H.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

static const char misfit[] = "row kernel buffers do not fit the row";

static uint64_t clamp(uint64_t w, uint64_t t) { return w > t ? w : t; }

/* One row. L, its m records, is sorted by clamped weight max(weight, t).
 * The candidates are its records (A) and their sums with item (B), where
 * wt = item[ks] is the item's weight; the B records heavier than W form a
 * suffix of B and are dropped. A and B are taken in order of clamped
 * weight, A first on a tie, and each is written into L_o at pos, the next
 * free record. F holds the record numbers, in L_o, of the kept labels that
 * no other kept label covers. Equal vectors cover by the lighter label,
 * and on equal weights by the one in F. A covered candidate is dropped,
 * pos stays, and its scan ends there. A kept one moves pos past it and
 * takes out of F what it covers; what it covers at its own clamped
 * weight it marks dead by a weight of W + 1, which no label has, and the
 * dead are removed at the end.
 *
 * Every index is a count of records that the row itself took up: at most
 * 2m records are written into L_o and at most 2m record numbers into F,
 * which the sweep has room for. On return out holds the records kept,
 * the candidate x F pairs the scans took up and the largest F at a
 * change of clamped weight or at the end.
 */
static void merge(const uint64_t *L, const uint64_t *item, uint64_t *L_o,
                  int64_t *F, int64_t *out, int64_t m, int64_t ks, uint64_t H,
                  uint64_t t, uint64_t W)
{
    uint64_t wt = item[ks], last = 0;
    int64_t R = ks + 1, mb = m, nF = 0, pos = 0, comparisons = 0, max_cell = 0;
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
            if (ge_rc && ge_cr) { /* equal vectors: the lighter, then the one in F */
                ge_rc = r[ks] <= c[ks];
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

/* O& converter: a Python int of 64 bits; a larger or negative one does not fit. */
static int word(PyObject *o, void *p)
{
    *(uint64_t *)p = PyLong_AsUnsignedLongLong(o);
    if (!PyErr_Occurred())
        return 1;
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, misfit);
    }
    return 0;
}

/* The words of an array("Q") in b, or -1 with b->obj NULL. */
static int words(PyObject *o, Py_buffer *b)
{
    if (PyObject_GetBuffer(o, b, PyBUF_FORMAT | PyBUF_ND) < 0) {
        PyErr_Clear();
        b->obj = NULL;
        return -1;
    }
    if (b->ndim == 1 && b->itemsize == 8 && strcmp(b->format, "Q") == 0)
        return 0;
    PyBuffer_Release(b);
    return -1;
}

/* Room for n words at *buf, which holds *cap; -1 and MemoryError when there is none. */
static int reserve(void **buf, size_t *cap, size_t n)
{
    size_t most = PY_SSIZE_T_MAX / sizeof(uint64_t);
    if (n <= *cap)
        return 0;
    n = n > most / 2 ? n : 2 * n;
    void *grown = n > most ? NULL : PyMem_Realloc(*buf, n * sizeof(uint64_t));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    *cap = n;
    return 0;
}

/* Append L's m records of R words to rows as one bytes object; -1 on failure. */
static int keep_row(PyObject *rows, const uint64_t *L, size_t m, size_t R)
{
    PyObject *row = PyBytes_FromStringAndSize((const char *)L, m * R * sizeof(uint64_t));
    int failed = row == NULL || PyList_Append(rows, row) < 0;
    Py_XDECREF(row);
    return -failed;
}

static PyObject *sweep(PyObject *self, PyObject *args)
{
    PyObject *items_o, *ts_o, *rows = NULL, *result = NULL;
    Py_buffer items = {0}, ts = {0};
    uint64_t ks, H, W, R;
    void *L = NULL, *L_o = NULL, *F = NULL, *swap;
    int64_t comparisons = 0, max_cell = 0, out[3];
    size_t m = 1, cap_L = 0, cap_o = 0, cap_F = 0, cap;
    int keep;
    (void)self;
    if (!PyArg_ParseTuple(args, "OOO&O&O&p", &items_o, &ts_o, word, &ks, word, &H, word, &W,
                          &keep))
        return NULL;
    /* The merge reads and writes through bare pointers: n records in of
     * R = ks + 1 words, at least one lane word and R not wrapped to 0,
     * weights that carry out of no word when added to one <= W, clamps
     * t <= W, and W + 1 marks the dead. */
    int fits = words(items_o, &items) == 0 && words(ts_o, &ts) == 0;
    size_t n = ts.len / 8, len = items.len / 8;
    R = ks + 1;
    fits = fits && ks != 0 && R != 0 && len % R == 0 && len / R == n && W < (uint64_t)1 << 63;
    const uint64_t *item = items.buf, *t = ts.buf;
    for (size_t i = 0; fits && i < n; i++)
        fits = 1 <= item[i * R + ks] && item[i * R + ks] < (uint64_t)1 << 63 && t[i] <= W;
    if (!fits) {
        PyErr_SetString(PyExc_ValueError, misfit);
        goto done;
    }
    if ((rows = PyList_New(0)) == NULL || reserve(&L, &cap_L, R) < 0)
        goto done;
    memset(L, 0, R * sizeof(uint64_t)); /* row 0: the zero label */
    if (keep && keep_row(rows, L, m, R) < 0)
        goto done;
    for (size_t i = 0; i < n; i++) {
        if (reserve(&L_o, &cap_o, 2 * m * R) < 0 || reserve(&F, &cap_F, 2 * m) < 0)
            goto done;
        merge(L, item + i * R, L_o, F, out, m, ks, H, t[i], W);
        swap = L, L = L_o, L_o = swap;
        cap = cap_L, cap_L = cap_o, cap_o = cap;
        m = out[0];
        comparisons += out[1];
        max_cell = out[2] > max_cell ? out[2] : max_cell;
        if (keep && keep_row(rows, L, m, R) < 0)
            goto done;
    }
    if (keep || keep_row(rows, L, m, R) == 0)
        result = Py_BuildValue("(OLL)", rows, (long long)comparisons, (long long)max_cell);
done:
    Py_XDECREF(rows);
    PyMem_Free(L);
    PyMem_Free(L_o);
    PyMem_Free(F);
    if (ts.obj != NULL)
        PyBuffer_Release(&ts);
    if (items.obj != NULL)
        PyBuffer_Release(&items);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", sweep, METH_VARARGS,
     "sweep(items, ts, ks, H, W, keep) -> (rows, comparisons, max_cell)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_rowkernel", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__rowkernel(void) { return PyModule_Create(&module); }
