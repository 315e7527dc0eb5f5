/* Compiled counting loops of kmp_search, hashq_search and _distq_core.
 * Each ports the untraced branch of its Python function line for line and
 * returns (occurrences, counters in SearchStats field order).  Each builds
 * the shift tables it reads from the pattern, by the algorithms of
 * kmp_shift_table and hash_tables in preprocess.py, so no table crosses
 * from Python: a search takes the pattern and the text (both read through
 * the buffer protocol), and q and rolling where it needs them.  Unsigned
 * 32-bit hashes masked to 16 or 8 bits equal the Python polynomials mod
 * 2^16 or 2^8.  Two things differ from the Python loops in form only:
 * hashq and distq verify a window 8 bytes at a time (agree), while
 * char_comparisons still counts byte tests, the bytes matched plus the
 * failing one; and the searches store positions in a block on the C
 * stack, which becomes ints outside the loops (add, flush).  The word
 * compare is written for little-endian and picks clz on a big-endian
 * build at compile time; only little-endian was tested. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef long long i64;

/* The 16-bit hq table of the pattern being scanned, kept as its complement:
 * entry h is m - q + 1 - hq[h], that is p - q + 1 for the rightmost pattern
 * q-gram ending at p that hashes to h, and 0 ("clean") when none does.  A
 * call sets the entries of its pattern's q-grams and clears them before it
 * releases any buffer, on every path, holding the GIL throughout (no Python
 * code runs in between: list appends and int creation never start the GC).
 * So HQ is all clean between calls, and a search touches O(m) of it. */
static uint32_t HQ[65536];
static uint32_t *kmp_fill(const unsigned char *P, Py_ssize_t m,
                          Py_ssize_t extra);
static uint32_t qgram(const unsigned char *P, Py_ssize_t j, int q, int bits);
static void scan(const unsigned char *P, Py_ssize_t m, int q, uint32_t *dist);
static void clear(const unsigned char *P, Py_ssize_t m, int q);

/* Where the hot loops sit.  kmp starts on a 64-byte boundary with every
 * label on a 16-byte one (PLACED); in hashq and distq each loop and each
 * label reached only by a jump starts on a 64-byte boundary (LOOPS_PLACED),
 * so the set-up before a loop does not move it.  They are that sensitive
 * to placement: distq ran 12-25 % slower on Fibonacci text with its
 * comparison loop across a 64-byte line than inside one, kmp 29 % slower
 * 32 bytes away (and about 10 % slower under LOOPS_PLACED than PLACED), and
 * hashq 3 % slower 16 bytes away.  After an edit, compare `objdump -d` and
 * a paired timing of each loop with the parent. */
#define PLACED __attribute__((aligned(64), optimize("align-labels=16")))
#define LOOPS_PLACED \
    __attribute__((optimize("align-loops=64", "align-jumps=64")))

/* The tables one call built, its occurrences (the list `occ`, then the
 * `n` 1-based positions in `block` not yet appended to it), and its
 * pattern and text.  `block` lives on the C stack and is never zeroed
 * (`Args a = {0}` would clear it on every call): init() sets tab, occ
 * and n.  Those come first, at short stack offsets: after the buffers
 * they lengthened kmp's set-up enough to move its loop 32 bytes, and kmp
 * ran 8-14 % slower on Fibonacci text.  `block` is small because every
 * call pays for its stack: with 512 entries (4 KB) perfbench's
 * short-queries read about 2 % slower on every matcher, with 64 at par. */
#define BLOCK 64
typedef struct {
    uint32_t *tab;
    PyObject *occ;
    Py_ssize_t n;
    Py_buffer p, t;
    Py_ssize_t block[BLOCK];
} Args;

static void init(Args *a) {
    a->tab = NULL, a->occ = NULL, a->n = 0;
}

/* 0, with a ValueError set. */
static int fail(const char *msg) {
    PyErr_SetString(PyExc_ValueError, msg);
    return 0;
}

/* 1 <= q <= min(m, 8), or 0 with a ValueError set. */
static int q_ok(int q, Py_ssize_t m) {
    return (q >= 1 && q <= 8 && q <= m) || fail("q must be in [1, min(m, 8)]");
}

/* m + 1 fits in a table entry, or 0 with a ValueError set. */
static int fits(Py_ssize_t m) {
    return m < UINT32_MAX || fail("m + 1 must fit in 32 bits");
}

/* Append the block's positions to `occ` as ints and empty the block; 0 on
 * failure.  Kept out of the search loops.  It creates only ints and grows
 * `occ`, which start no garbage collection, so distq may call it while
 * HQ holds its pattern's entries; a new list per block would not do, as
 * PyList_New may start one. */
__attribute__((noinline)) static int flush(Args *a) {
    for (Py_ssize_t x = 0; x < a->n; x++) {
        PyObject *v = PyLong_FromSsize_t(a->block[x]);
        int rc = v != NULL && PyList_Append(a->occ, v) == 0;
        Py_XDECREF(v);
        if (!rc)
            return 0;
    }
    a->n = 0;
    return 1;
}

/* Record 1-based position `pos`; 0 on failure. */
static inline int add(Args *a, Py_ssize_t pos) {
    a->block[a->n++] = pos;
    return a->n < BLOCK || flush(a);
}

/* The first index x in [k, m) with P[x] != W[x], or m, where P[0..k) and
 * W[0..k) are known to agree.  It compares 8 bytes per unaligned load and
 * finds the first differing byte of a word from its lowest set XOR bit
 * (its highest on a big-endian build); a tail of under 8 bytes is one
 * word ending at m, which may overlap bytes already known to agree, and
 * under 8 bytes in all is the byte loop. */
static inline Py_ssize_t agree(const unsigned char *P, const unsigned char *W,
                               Py_ssize_t k, Py_ssize_t m) {
    uint64_t x, y;
#if PY_BIG_ENDIAN
#define FIRST(v) (__builtin_clzll(v) >> 3)
#else
#define FIRST(v) (__builtin_ctzll(v) >> 3)
#endif
    for (; k + 8 <= m; k += 8) {
        memcpy(&x, P + k, 8), memcpy(&y, W + k, 8);
        if (x != y)
            return k + FIRST(x ^ y);
    }
    if (k < m && m >= 8) {
        memcpy(&x, P + m - 8, 8), memcpy(&y, W + m - 8, 8);
        return x == y ? m : m - 8 + FIRST(x ^ y);
    }
    while (k < m && P[k] == W[k])
        k++;
    return k;
#undef FIRST
}

/* Free the tables and release the buffers of `a`, then append the rest
 * of its block; the result tuple, or NULL unless `ok`. */
static PyObject *result(Args *a, int ok, i64 cmps, i64 fchecks, i64 reads,
                        i64 hq_n, i64 dist_n, i64 kmp_n, i64 windows) {
    PyMem_RawFree(a->tab);
    PyBuffer_Release(&a->p);
    PyBuffer_Release(&a->t);
    if (!ok || !flush(a)) {
        Py_XDECREF(a->occ);
        return NULL;
    }
    return Py_BuildValue("(NLLLLLLL)", a->occ, cmps, fchecks, reads, hq_n,
                         dist_n, kmp_n, windows);
}

PLACED static PyObject *kmp(PyObject *self, PyObject *args) {
    Args a;
    init(&a);
    const uint32_t *ks;
    if (!PyArg_ParseTuple(args, "y*y*", &a.p, &a.t))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, i = 1, j = 1;
    i64 cmps = 0, kmp_n = 0;
    int ok = (m > 0 || fail("pattern must be non-empty"))
        && (ks = a.tab = kmp_fill(P, m, 0)) != NULL
        && (a.occ = PyList_New(0)) != NULL;
    if (!ok || n < m)
        return result(&a, ok, 0, 0, 0, 0, 0, 0, 0);
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
            ok = add(&a, i - m);
        }
        j -= ks[j];
        if (i - j + 1 > last_start)
            break;
        kmp_n++;
    }
    return result(&a, ok, cmps, 0, 0, 0, 0, kmp_n, 1 + kmp_n);
}

LOOPS_PLACED static PyObject *hashq(PyObject *self, PyObject *args) {
    Args a;
    init(&a);
    uint32_t hq[256];
    int q;
    if (!PyArg_ParseTuple(args, "y*y*i", &a.p, &a.t, &q))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, k = m, s, j, adv = 0;
    i64 cmps = 0, reads = 0, hq_n = 0, dist_n = 0, windows = n >= m;
    int ok = q_ok(q, m) && fits(m) && (a.occ = PyList_New(0)) != NULL;
    if (ok) {
        /* hash_tables(P, q, 8): the scan reads dist[m], the constant
         * advance after a comparison, as hq's entry for P's last q-gram
         * just before it records that q-gram */
        for (s = 0; s < 256; s++)
            hq[s] = m - q + 1;
        for (j = q; j <= m; j++) {
            uint32_t *e = &hq[qgram(P, j, q, 8)];
            adv = *e, *e = m - j;
        }
    }
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
        j = agree(P, T + start, 0, m);
        cmps += j;
        if (j < m)
            cmps++;  /* the failing test */
        else
            ok = add(&a, start + 1);
        k += adv;  /* constant advance after a comparison */
        if (k <= n)
            dist_n++, windows++;
    }
    return result(&a, ok, cmps, 0, reads, hq_n, dist_n, 0, windows);
}

LOOPS_PLACED static PyObject *distq(PyObject *self, PyObject *args) {
    Args a;
    init(&a);
    uint32_t *ks, *dist = NULL;
    int q, rolling;
    if (!PyArg_ParseTuple(args, "y*y*ip", &a.p, &a.t, &q, &rolling))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, s, d;
    i64 cmps = 0, fchecks = 0, reads = 0, hq_n = 0, dist_n = 0, kmp_n = 0;
    i64 windows = n >= m;  /* the first alignment, if it fits */
    int ok = q_ok(q, m)
        && (ks = a.tab = kmp_fill(P, m, m + 1)) != NULL
        && (a.occ = PyList_New(0)) != NULL;
    int marked = ok;  /* HQ holds this pattern's entries until clear() */
    if (marked)
        scan(P, m, q, dist = ks + m + 2);
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
                sh = mq1 - HQ[h];  /* in [0, m - q + 1]: pos = m - sh >= 0 */
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
            pos = m - sh;
            fchecks++;  /* the extend loop's first test */
            j = 1, i = k - m + 1;
        }
        /* comparison or border phase, then a dist-or-kmp or kmp shift */
        d = agree(P, T + (i - j), j - 1, m) - (j - 1);
        cmps += d, i += d, j += d;
        if (j <= m)
            cmps++;  /* the failing test */
        else
            ok = add(&a, i - m);
        Py_ssize_t amt = ks[j];
        int is_dist = 0;
        if (hashed && (d = dist[pos]) >= j - 1 && d >= amt)
            amt = d, is_dist = 1;
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
    if (marked)
        clear(P, m, q);
    return result(&a, ok, cmps - fchecks, fchecks, reads, hq_n, dist_n,
                  kmp_n, windows);
}

/* A new buffer whose first m + 2 entries are kmp_shift_table(P), followed
 * by `extra` entries for the caller; NULL with an error set.  It comes from
 * the C allocator, not Python's pools, so AddressSanitizer guards every
 * table whatever PYTHONMALLOC says.  The fill reads each strong border
 * sb[x] back from its shift as x - 1 - ks[x]. */
static uint32_t *kmp_fill(const unsigned char *P, Py_ssize_t m,
                          Py_ssize_t extra) {
    size_t len = m + 2 + extra;
    uint32_t *ks = NULL;
    Py_ssize_t i, j;
    if (!fits(m))
        return NULL;
    if (len <= PY_SSIZE_T_MAX / sizeof *ks)
        ks = PyMem_RawMalloc(len * sizeof *ks);
    if (ks == NULL)
        return (uint32_t *)PyErr_NoMemory();
    ks[0] = 0, ks[1] = 1;
    for (i = 0, j = -1; i < m; ) {
        while (j > -1 && P[i] != P[j])
            j -= ks[j + 1];
        i++, j++;
        ks[i + 1] = i - (i < m && P[i] == P[j] ? j - ks[j + 1] : j);
    }
    return ks;
}

/* Hash of the q-gram of P that ends before index j, in the bits-bit
 * fingerprint: base 4 for 16 bits, base 2 for 8. */
static uint32_t qgram(const unsigned char *P, Py_ssize_t j, int q, int bits) {
    uint32_t h = 0, base = bits == 16 ? 4 : 2;
    for (Py_ssize_t s = j - q; s < j; s++)
        h = h * base + P[s];
    return h & (bits == 16 ? 0xFFFF : 0xFF);
}

/* The one scan of hash_tables(P, q) over the q-grams of P ending at
 * j = q..m, ascending, through HQ: v = HQ[h] is p - q + 1 for the previous
 * p with hash h, or 0 for the virtual p = q - 1, so dist[j] = j - p =
 * j - q + 1 - v, and then HQ[h] records p = j.  dist[0..q-1] are left
 * unset: distq reads dist[pos] only at pos >= q. */
static void scan(const unsigned char *P, Py_ssize_t m, int q, uint32_t *dist) {
    for (Py_ssize_t j = q; j <= m; j++) {
        uint32_t *e = &HQ[qgram(P, j, q, 16)];
        dist[j] = j - q + 1 - *e;
        *e = j - q + 1;
    }
}

/* Clean the HQ entries that scan() set for the q-grams of P. */
static void clear(const unsigned char *P, Py_ssize_t m, int q) {
    for (Py_ssize_t j = q; j <= m; j++)
        HQ[qgram(P, j, q, 16)] = 0;
}

static PyMethodDef methods[] = {
    {"kmp", kmp, METH_VARARGS, "kmp(pattern, text)"},
    {"hashq", hashq, METH_VARARGS, "hashq(pattern, text, q)"},
    {"distq", distq, METH_VARARGS, "distq(pattern, text, q, rolling)"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_engine", "Compiled searches.", -1,
    methods
};

PyMODINIT_FUNC PyInit__engine(void) {
    return PyModule_Create(&module);
}
