/* Compiled counting loops of kmp_search, hashq_search and _distq_core, and
 * the table builders of kmp_shift_table and hash_tables in preprocess.py.
 * Each ports the untraced branch of its Python function line for line; a
 * loop returns (occurrences, counters in SearchStats field order), and a
 * builder fills the tables it is given in place.  Pattern and text are read
 * through the buffer protocol.  Every table must be a C-contiguous
 * array('I') of the length its caller builds, and an entry no valid table
 * holds raises ValueError, so no input makes a loop read or write out of
 * bounds or stop advancing.  Unsigned 32-bit hashes masked to 16 or 8 bits
 * equal the Python polynomials mod 2^16 or 2^8. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef long long i64;

/* The pattern, the text and up to three tables of one call. */
typedef struct { Py_buffer p, t, tab[3]; } Args;

/* 0, with a ValueError set: `ok = fail(...)` ends a loop. */
static int fail(const char *msg) {
    PyErr_SetString(PyExc_ValueError, msg);
    return 0;
}

/* 1 <= q <= min(m, 8), or 0 with a ValueError set. */
static int q_ok(int q, Py_ssize_t m) {
    return (q >= 1 && q <= 8 && q <= m) || fail("q must be in [1, min(m, 8)]");
}

/* Table `i` of `a` from `obj`, as `len` uint32 entries; NULL on error. */
static const uint32_t *table(Args *a, int i, PyObject *obj, Py_ssize_t len) {
    Py_buffer *v = &a->tab[i];
    if (PyObject_GetBuffer(obj, v, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    if (v->itemsize == 4 && v->format != NULL && strcmp(v->format, "I") == 0
            && v->len == 4 * len)
        return (const uint32_t *)v->buf;
    PyErr_Format(PyExc_ValueError, "table %d must be array('I') of %zd "
                 "entries", i, len);
    return NULL;
}

/* Append 1-based position `pos` to `occ`; 0 on failure. */
static int add(PyObject *occ, Py_ssize_t pos) {
    PyObject *v = PyLong_FromSsize_t(pos);
    int rc = v != NULL && PyList_Append(occ, v) == 0;
    Py_XDECREF(v);
    return rc;
}

/* Release the buffers of `a`; the result tuple, or NULL unless `ok`. */
static PyObject *result(Args *a, int ok, PyObject *occ, i64 cmps,
                        i64 fchecks, i64 reads, i64 hq_n, i64 dist_n,
                        i64 kmp_n, i64 windows) {
    for (int i = 0; i < 3; i++)
        if (a->tab[i].obj != NULL)
            PyBuffer_Release(&a->tab[i]);
    PyBuffer_Release(&a->p);
    PyBuffer_Release(&a->t);
    if (!ok) {
        Py_XDECREF(occ);
        return NULL;
    }
    return Py_BuildValue("(NLLLLLLL)", occ, cmps, fchecks, reads, hq_n,
                         dist_n, kmp_n, windows);
}

static PyObject *kmp(PyObject *self, PyObject *args) {
    Args a = {0};
    PyObject *ko, *occ = NULL;
    const uint32_t *ks;
    if (!PyArg_ParseTuple(args, "y*y*O", &a.p, &a.t, &ko))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, i = 1, j = 1, amt;
    i64 cmps = 0, kmp_n = 0;
    int ok = (m > 0 || fail("pattern must be non-empty"))
        && (ks = table(&a, 0, ko, m + 2)) != NULL
        && (occ = PyList_New(0)) != NULL;
    if (!ok || n < m)
        return result(&a, ok, occ, 0, 0, 0, 0, 0, 0, 0);
    Py_ssize_t last_start = n - m + 1;  /* rightmost alignment that fits */
    while (ok) {
        if (j == 0) {  /* resume at the next text byte */
            i++, j = 1;
            continue;
        }
        cmps++;
        if (P[j - 1] == T[i - 1]) {
            i++, j++;
            if (j <= m)
                continue;
            ok = add(occ, i - m);
        }
        amt = ks[j];
        if (amt < 1 || amt > j)
            ok = fail("kmp table holds an impossible shift");
        j -= amt;
        if (i - j + 1 > last_start)
            break;
        kmp_n++;
    }
    return result(&a, ok, occ, cmps, 0, 0, 0, 0, kmp_n, 1 + kmp_n);
}

static PyObject *hashq(PyObject *self, PyObject *args) {
    Args a = {0};
    PyObject *ho, *dob, *occ = NULL;
    const uint32_t *hq, *dist;
    int q;
    if (!PyArg_ParseTuple(args, "y*y*iOO", &a.p, &a.t, &q, &ho, &dob))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, k = m, s, j, adv = 0;
    i64 cmps = 0, reads = 0, hq_n = 0, dist_n = 0, windows = n >= m;
    int ok = q_ok(q, m)
        && (hq = table(&a, 0, ho, 256)) != NULL
        && (dist = table(&a, 1, dob, m + 1)) != NULL
        && ((adv = dist[m]) >= 1 || fail("dist table holds a zero advance"))
        && (occ = PyList_New(0)) != NULL;
    while (ok && k <= n) {
        uint32_t h = 0, sh;
        for (s = k - q; s < k; s++)
            h = h * 2 + T[s];
        reads += q;
        sh = hq[h & 0xFF];
        k += sh;
        if (k > n)
            break;
        hq_n++;
        if (sh) {
            windows++;
            continue;
        }
        Py_ssize_t start = k - m;  /* 0-based window start */
        for (j = 0; j < m && P[j] == T[start + j]; j++)
            cmps++;
        if (j < m)
            cmps++;  /* the failing test */
        else
            ok = add(occ, start + 1);
        k += adv;  /* constant advance after a comparison */
        if (k <= n)
            dist_n++, windows++;
    }
    return result(&a, ok, occ, cmps, 0, reads, hq_n, dist_n, 0, windows);
}

static PyObject *distq(PyObject *self, PyObject *args) {
    Args a = {0};
    PyObject *ho, *dob, *ko, *occ = NULL;
    const uint32_t *hq, *dist, *ks;
    int q, rolling;
    if (!PyArg_ParseTuple(args, "y*y*iOOOp", &a.p, &a.t, &q, &ho, &dob, &ko,
                          &rolling))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, s, d;
    i64 cmps = 0, fchecks = 0, reads = 0, hq_n = 0, dist_n = 0, kmp_n = 0;
    i64 windows = n >= m;  /* the first alignment, if it fits */
    int ok = q_ok(q, m)
        && (hq = table(&a, 0, ho, 65536)) != NULL
        && (dist = table(&a, 1, dob, m + 1)) != NULL
        && (ks = table(&a, 2, ko, m + 2)) != NULL
        && (occ = PyList_New(0)) != NULL;
    uint32_t pow4 = 1, h, sh = 0, last_h = 0;
    for (s = 1; ok && s < q; s++)
        pow4 *= 4;  /* weight of a window's leading byte */
    Py_ssize_t mq1 = m - q + 1, i = 1, j = 1, k = m, pos = m, last_end = -1;
    while (ok && k <= n) {
        int hashed = j <= 1;
        if (hashed) {
            /* alignment phase: hash until a shift aligns a q-gram of p */
            for (;;) {
                Py_ssize_t e = k;
                if (rolling && e - last_end >= 0 && e - last_end < q) {
                    d = e - last_end;
                    h = last_h;
                    for (s = 0; s < d; s++)  /* each step reads one byte */
                        h = ((h - pow4 * T[last_end - q + s]) * 4
                             + T[last_end + s]) & 0xFFFF;
                    reads += d;
                } else {
                    h = 0;
                    for (s = e - q; s < e; s++)
                        h = h * 4 + T[s];
                    h &= 0xFFFF;
                    reads += q;
                }
                last_end = e, last_h = h;
                sh = hq[h];
                k += sh;
                if (k > n)
                    break;
                hq_n++;
                if (sh)
                    windows++;
                if (sh != mq1)
                    break;  /* some pattern q-gram hashes like this one */
            }
            if (k > n)
                break;  /* window left the text */
            if (sh > mq1) {
                ok = fail("hq table holds a shift above m - q + 1");
                break;
            }
            pos = m - sh;
            fchecks++;  /* the extend loop's first test */
            j = 1, i = k - m + 1;
        }
        /* comparison or border phase, then a dist-or-kmp or kmp shift */
        while (j <= m && P[j - 1] == T[i - 1])
            cmps++, i++, j++;
        if (j <= m)
            cmps++;  /* the failing test */
        else
            ok = add(occ, i - m);
        Py_ssize_t amt = ks[j];
        int is_dist = 0;
        if (hashed && (d = dist[pos]) >= j - 1 && d >= amt)
            amt = d, is_dist = 1;
        if (amt < 1)
            ok = fail("dist or kmp table holds a zero shift");
        j -= amt;
        k = i + m - j;
        if (k <= n) {
            windows++;  /* dist and kmp shifts are >= 1 */
            if (is_dist)
                dist_n++;
            else
                kmp_n++;
        }
    }
    return result(&a, ok, occ, cmps - fchecks, fchecks, reads, hq_n, dist_n,
                  kmp_n, windows);
}

/* Table `i` of `a` as table() reads it, and writable; NULL on error. */
static uint32_t *out_table(Args *a, int i, PyObject *obj, Py_ssize_t len) {
    const uint32_t *t = table(a, i, obj, len);
    if (t == NULL || !a->tab[i].readonly)
        return (uint32_t *)t;
    PyErr_Format(PyExc_ValueError, "table %d must be writable", i);
    return NULL;
}

/* kmp_table(pattern, kmp) fills kmp like kmp_shift_table, reading each
 * strong border sb[x] back from its shift as x - 1 - ks[x].  The builders
 * follow the loops and use their helpers as they are, so the loops keep
 * their machine code and addresses: when a reworked helper moved kmp's
 * loop, kmp ran 8 % slower on Fibonacci text. */
static PyObject *kmp_table(PyObject *self, PyObject *args) {
    Args a = {0};
    PyObject *ko;
    uint32_t *ks;
    if (!PyArg_ParseTuple(args, "y*O", &a.p, &ko))
        return NULL;
    const unsigned char *P = a.p.buf;
    Py_ssize_t m = a.p.len, i, j;
    int ok = (m > 0 || fail("pattern must be non-empty"))
        && (m < UINT32_MAX || fail("m + 1 must fit in 32 bits"))
        && (ks = out_table(&a, 0, ko, m + 2)) != NULL;
    if (ok) {
        ks[0] = 0, ks[1] = 1;
        for (i = 0, j = -1; i < m; ) {
            while (j > -1 && P[i] != P[j])
                j -= ks[j + 1];
            i++, j++;
            ks[i + 1] = i - (i < m && P[i] == P[j] ? j - ks[j + 1] : j);
        }
    }
    result(&a, 0, NULL, 0, 0, 0, 0, 0, 0, 0);  /* releases the buffers */
    return ok ? Py_NewRef(Py_None) : NULL;
}

/* hash_tables(pattern, q, bits, hq, dist) fills hq and dist like
 * hash_tables, hashing each pattern q-gram afresh with the 16-bit (base 4)
 * or 8-bit (base 2) fingerprint. */
static PyObject *hash_tables(PyObject *self, PyObject *args) {
    Args a = {0};
    PyObject *ho, *dob;
    uint32_t *hq, *dist;
    int q, bits;
    if (!PyArg_ParseTuple(args, "y*iiOO", &a.p, &q, &bits, &ho, &dob))
        return NULL;
    const unsigned char *P = a.p.buf;
    Py_ssize_t m = a.p.len, j, s, v;
    int ok = q_ok(q, m)
        && (m < UINT32_MAX || fail("m + 1 must fit in 32 bits"))
        && (bits == 16 || bits == 8 || fail("bits must be 8 or 16"))
        && (hq = out_table(&a, 0, ho, (Py_ssize_t)1 << bits)) != NULL
        && (dist = out_table(&a, 1, dob, m + 1)) != NULL;
    uint32_t base = bits == 16 ? 4 : 2, mask = bits == 16 ? 0xFFFF : 0xFF;
    for (j = 0; ok && j < q; j++)
        dist[j] = j > 0;  /* inert entries: never above a real gap */
    for (j = q; ok && j <= m; j++) {
        uint32_t h = 0;
        for (s = j - q; s < j; s++)
            h = h * base + P[s];
        h &= mask;
        /* the prefill m - q + 1 is no real shift (those are m - p for a
         * q-gram ending at p >= q): it marks a hash not seen yet, and m
         * minus it is the virtual position q - 1 */
        v = hq[h];
        if (v < m - j + 1 || v > m - q + 1)
            ok = fail("hq must be prefilled with m - q + 1");
        else
            dist[j] = j - (m - v), hq[h] = m - j;
    }
    result(&a, 0, NULL, 0, 0, 0, 0, 0, 0, 0);  /* releases the buffers */
    return ok ? Py_NewRef(Py_None) : NULL;
}

static PyMethodDef methods[] = {
    {"kmp", kmp, METH_VARARGS, "kmp(pattern, text, kmp)"},
    {"hashq", hashq, METH_VARARGS, "hashq(pattern, text, q, hq, dist)"},
    {"distq", distq, METH_VARARGS, "distq(p, t, q, hq, dist, kmp, rolling)"},
    {"kmp_table", kmp_table, METH_VARARGS, "kmp_table(pattern, kmp)"},
    {"hash_tables", hash_tables, METH_VARARGS,
     "hash_tables(pattern, q, bits, hq, dist)"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_engine", "Compiled loops and table builders.", -1,
    methods
};

PyMODINIT_FUNC PyInit__engine(void) {
    return PyModule_Create(&module);
}
