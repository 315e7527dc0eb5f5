/* Four entry points: the compiled counting loops of kmp_search, hashq_search
 * and distq_search/ldistq_search, and bind(), which matchers.py calls once
 * with the SearchOutcome and SearchStats classes and the SearchStats field
 * names.  Each search takes its arguments as a vector (METH_FASTCALL), which
 * take() checks in full before the search starts, and returns what the
 * untraced branch of its Python function returns, the finished
 * SearchOutcome, made without __init__ (result); before bind() it raises.
 * Each search builds the shift tables it reads from the pattern, by the
 * algorithms of kmp_shift_table and hash_tables in matchers.py, so no table
 * crosses from Python: a search takes the pattern and the text (both read
 * through the buffer protocol), and q and rolling where it needs them.
 * Unsigned 32-bit hashes masked to 16 or 8 bits equal the Python
 * polynomials mod 2^16 or 2^8.  Three things differ from the Python loops
 * in form only: hashq and distq verify a window 8 bytes at a time (agree),
 * while char_comparisons still counts byte tests, the bytes matched plus
 * the failing one; the searches hold positions as 8-byte C integers, in a
 * block on the C stack and a heap spill that doubles (add, flush), up to
 * 16 B per occurrence until they return, and make the list of ints once,
 * at its final length, after distq has cleaned HQ (result); and hashq and
 * distq share one alignment step (align), which takes a full shift without
 * waiting for its table load and then hashes two windows at once.  The
 * word compare is written for little-endian and picks clz on a big-endian
 * build at compile time; only little-endian was tested. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef long long i64;

/* The 16-bit hq table of the pattern being scanned, kept as its complement
 * (as is hashq's 8-bit one, on its stack): entry h is m - q + 1 - hq[h],
 * that is p - q + 1 for the rightmost pattern q-gram ending at p that hashes
 * to h, and 0 ("clean") when none does.  A distq call sets the entries of
 * its pattern's q-grams and clears them before it makes any Python object
 * (which may start the GC, and so Python code that searches) or releases a
 * buffer, on every path, holding the GIL throughout: in between it keeps
 * its occurrences as C integers (flush).  HQ is so all clean between calls;
 * a search touches O(m). */
static uint32_t HQ[65536];

/* Where the hot loops sit.  kmp starts on a 64-byte boundary with every
 * label on a 16-byte one (PLACED); in hashq and distq each loop and each
 * label reached only by a jump starts on a 64-byte boundary (LOOPS_PLACED),
 * so the set-up before a loop does not move it.  They are that sensitive
 * to placement: distq ran 12-25 % slower on Fibonacci text with its
 * comparison loop across a 64-byte line than inside one, kmp 29 % slower
 * 32 bytes away (and about 10 % slower under LOOPS_PLACED than PLACED), and
 * hashq 3 % slower 16 bytes away.  kmp's set-up still moves its loop: it
 * reads the text before or after kmp_fill, whichever keeps the loop where
 * it was.  kmp is also `hot`, which puts it first in the text (.text.hot),
 * so edits to the other functions do not move it: with the same offsets
 * mod 64, its loop ran up to 10 % slower on short sigma = 95 records at
 * some addresses than at others.  After an edit, compare `objdump -d` and
 * a paired timing of each loop with the parent. */
#define PLACED \
    __attribute__((hot, aligned(64), optimize("align-labels=16")))
#define LOOPS_PLACED \
    __attribute__((optimize("align-loops=64", "align-jumps=64")))

/* The tables one call built, its occurrences, and its pattern and text.
 * The occurrences are 1-based positions held as 8-byte C integers until
 * the search returns: the `n` newest in `block`, the `used` before them in
 * `spill`, a heap buffer of `cap` entries (NULL until the first block
 * fills).  `block` lives on the C stack and is never zeroed (`Args a = {0}`
 * would clear it on every call): take() sets the other fields.  tab and n
 * come first, at short stack offsets: after the buffers they lengthened
 * kmp's set-up enough to move its loop 32 bytes, and kmp ran 8-14 % slower
 * on Fibonacci text.  `block` is small because every call pays for its
 * stack: with 512 entries (4 KB) perfbench's short-queries read about 2 %
 * slower on every matcher, with 64 at par. */
#define BLOCK 64
typedef struct {
    uint32_t *tab;
    Py_ssize_t n;
    Py_buffer p, t;
    Py_ssize_t block[BLOCK];
    Py_ssize_t *spill;
    Py_ssize_t used, cap;
} Args;

/* What bind() gave (NULL before), and the SearchOutcome field names and
 * the empty tuple that object.__new__ takes, made on import. */
static PyTypeObject *Outcome, *Stats;
static PyObject *StatsNames, *Fields[3], *Empty;

/* The pattern and text buffers of a search into `a`, then q and rolling
 * where it takes them (non-NULL), checked: 1 <= q <= min(m, 8), or a
 * non-empty pattern for a search without q, and m + 1 < 2^32.  Sets tab,
 * n, spill, used and cap; 0 with an error set and no buffer held on
 * failure.  Out of line, so the searches' set-up stays short. */
__attribute__((noinline)) static int take(Args *a, PyObject *const *args,
        Py_ssize_t nargs, int *q, int *rolling) {
    long v = 1;  /* with no q, the check of v below is m >= 1 */
    a->tab = NULL, a->n = 0, a->spill = NULL, a->used = a->cap = 0;
    if (Stats == NULL)
        PyErr_SetString(PyExc_RuntimeError, "engine not bound: call bind()");
    else if (nargs != 2 + (q != NULL) + (rolling != NULL))
        PyErr_Format(PyExc_TypeError, "wrong argument count: %zd", nargs);
    else if (PyObject_GetBuffer(args[0], &a->p, PyBUF_SIMPLE) == 0) {
        if (PyObject_GetBuffer(args[1], &a->t, PyBUF_SIMPLE) == 0) {
            if (q != NULL && ((v = PyLong_AsLong(args[2])) < INT_MIN
                              || v > INT_MAX))
                PyErr_SetString(PyExc_OverflowError, "q must fit in an int");
            else if (!(v == -1 && PyErr_Occurred()) && (rolling == NULL
                     || (*rolling = PyObject_IsTrue(args[3])) >= 0)) {
                if (v < 1 || v > 8 || v > a->p.len)
                    PyErr_SetString(PyExc_ValueError, q == NULL
                                    ? "pattern must be non-empty"
                                    : "q must be in [1, min(m, 8)]");
                else if (a->p.len >= UINT32_MAX)
                    PyErr_SetString(PyExc_ValueError,
                                    "m + 1 must fit in 32 bits");
                else {
                    if (q != NULL)
                        *q = (int)v;
                    return 1;
                }
            }
            PyBuffer_Release(&a->t);
        }
        PyBuffer_Release(&a->p);
    }
    return 0;
}

/* Move the block's positions to the end of the spill, which doubles from
 * 4 * BLOCK entries when full, and empty the block; 0 if the spill cannot
 * grow, with no error set, since an exception is a Python object:
 * result() sets it.  Kept out of the search loops. */
__attribute__((noinline)) static int flush(Args *a) {
    if (a->used + a->n > a->cap) {
        Py_ssize_t cap = a->cap ? 2 * a->cap : 4 * BLOCK;
        Py_ssize_t *spill = NULL;
        if (cap <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof *spill)
            spill = PyMem_RawRealloc(a->spill, cap * sizeof *spill);
        if (spill == NULL)
            return 0;
        a->spill = spill, a->cap = cap;
    }
    memcpy(a->spill + a->used, a->block, a->n * sizeof *a->block);
    a->used += a->n, a->n = 0;
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

/* Set field `name` of record r to v, taking the reference to v (NULL: an
 * error is set); 0 on failure. */
static int put(PyObject *r, PyObject *name, PyObject *v) {
    int ok = v != NULL && PyObject_GenericSetAttr(r, name, v) == 0;
    Py_XDECREF(v);
    return ok;
}

/* Free the tables and release the buffers of `a`, then make its list of
 * occurrences, at its final length, from the spill and the block, and
 * free the spill; its SearchOutcome, or NULL unless `ok`.  The records are
 * made by object.__new__ and get their fields in vars() order.  The first
 * Python object of a search is made here, so distq calls it only once HQ
 * is clean. */
static PyObject *result(Args *a, int ok, i64 cmps, i64 fchecks, i64 reads,
                        i64 hq_n, i64 dist_n, i64 kmp_n, i64 windows) {
    i64 count[] = {cmps, fchecks, reads, hq_n, dist_n, kmp_n, windows};
    PyObject *occ = NULL, *stats = NULL, *out = NULL;
    Py_ssize_t x, total = a->used + a->n;
    PyMem_RawFree(a->tab);
    PyBuffer_Release(&a->p);
    PyBuffer_Release(&a->t);
    if (!ok && !PyErr_Occurred())
        PyErr_NoMemory();  /* the spill could not grow */
    ok = ok && (occ = PyList_New(total)) != NULL;
    for (x = 0; ok && x < total; x++) {
        PyObject *v = PyLong_FromSsize_t(
            x < a->used ? a->spill[x] : a->block[x - a->used]);
        if (!(ok = v != NULL))
            break;
        PyList_SET_ITEM(occ, x, v);
    }
    PyMem_RawFree(a->spill);
    ok = ok
        && (stats = PyBaseObject_Type.tp_new(Stats, Empty, NULL)) != NULL
        && (out = PyBaseObject_Type.tp_new(Outcome, Empty, NULL)) != NULL;
    for (x = 0; ok && x < 7; x++)
        ok = put(stats, PyTuple_GET_ITEM(StatsNames, x),
                 PyLong_FromLongLong(count[x]));
    ok = ok && put(out, Fields[0], Py_NewRef(occ))
        && put(out, Fields[1], Py_NewRef(stats))
        && put(out, Fields[2], Py_NewRef(Py_None));
    Py_XDECREF(occ);
    Py_XDECREF(stats);
    if (!ok)
        Py_CLEAR(out);
    return out;
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

/* The one scan of hash_tables(P, q, bits) over the q-grams of P ending at
 * j = q..m, ascending, through tab, a table kept as HQ is: v = tab[h] is
 * p - q + 1 for the previous p with hash h, or 0 for the virtual p = q - 1,
 * so dist[j] = j - p = j - q + 1 - v, and then tab[h] records p = j.
 * dist[0..q-1] are left unset (distq reads dist[pos] only at pos >= q), and
 * no entry when dist is NULL; returns dist[m]. */
static uint32_t scan(const unsigned char *P, Py_ssize_t m, int q, int bits,
                     uint32_t *tab, uint32_t *dist) {
    uint32_t d = 0;
    for (Py_ssize_t j = q; j <= m; j++) {
        uint32_t *e = &tab[qgram(P, j, q, bits)];
        d = j - q + 1 - *e;
        if (dist)
            dist[j] = d;
        *e = j - q + 1;
    }
    return d;
}

PLACED static PyObject *kmp(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs) {
    Args a;
    const uint32_t *ks;
    if (!take(&a, args, nargs, NULL, NULL))
        return NULL;
    const unsigned char *P = a.p.buf;
    Py_ssize_t m = a.p.len, i = 1, j = 1;
    i64 cmps = 0, kmp_n = 0;
    const unsigned char *T = a.t.buf;  /* before the call: see PLACED */
    Py_ssize_t n = a.t.len;
    int ok = (ks = a.tab = kmp_fill(P, m, 0)) != NULL;
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

/* The alignment phase of a hashq (lo = 1) or distq (lo = m - q + 1) search
 * in s: from the window ending at s->k, hash (rolled from the last window
 * hashed when `rolling` and that ends under q bytes back), shift by
 * m - q + 1 - tab[h] (tab kept as HQ is, at `bits` bits) and count, while
 * the shift is at least lo; return the last shift, with s->k past n if the
 * window left the text.  A clean window takes the full shift on a branch,
 * so the next hash does not wait for the table load, and the step then
 * hashes the next two windows at once, each reading what a single step
 * would (q bytes, or m - q + 1 rolled): a clean first window is a full
 * shift to the second, whose hash makes the next step, and a dirty one
 * makes it itself.  So no hash is made twice, the shifts and counters are
 * those of single steps (and of a traced Python run), and the rolling
 * cache holds a window's hash that a roll would have given too.  The
 * callers count windows as SearchStats defines them, from the recorded
 * shifts: (n >= m) + hq_n - zeros + dist_n + kmp_n. */
typedef struct {
    Py_ssize_t k, last_end;  /* window end; end of the last window hashed */
    uint32_t last_h;         /* and its hash */
    i64 reads, hq_n, zeros;  /* zeros: recorded hash shifts of amount 0 */
} Align;

static inline __attribute__((always_inline)) uint32_t align(
        Align *s, const unsigned char *T, Py_ssize_t n, int q, int bits,
        const uint32_t *tab, Py_ssize_t mq1, Py_ssize_t lo, int rolling) {
    Py_ssize_t k = s->k, d, x, pr = rolling && mq1 < q ? mq1 : q;
    uint32_t h, h2, sh, b = bits == 16 ? 4 : 2;  /* as in qgram() */
    uint32_t mask = bits == 16 ? 0xFFFF : 0xFF, pow4 = 1u << 2 * (q - 1);
    for (;;) {
        d = k - s->last_end;
        /* each roll drops the leading byte, of weight pow4, and reads one */
        if (rolling && d >= 0 && d < q)
            for (h = s->last_h, x = k - d; x < k; x++)
                h = ((h - pow4 * T[x - q]) * 4 + T[x]) & 0xFFFF;
        else
            h = qgram(T, k, q, bits), d = q;
        s->reads += d;
    step:  /* h is the hash of the window ending at k */
        s->last_end = k, s->last_h = h;
        k += mq1, sh = mq1 - tab[h];  /* k + sh: k + mq1 waits for no load */
        if (tab[h]) {  /* some pattern q-gram hashes like this one */
            k -= tab[h];
            if (k > n)
                break;
            s->hq_n++, s->zeros += !sh;
            if (sh < lo)
                break;
            continue;
        }
        if (k > n)
            break;
        s->hq_n++;
        if (k + mq1 > n)
            continue;  /* no second window */
        for (h = h2 = 0, x = k - q; x < k; x++)  /* the next two windows */
            h = h * b + T[x], h2 = h2 * b + T[x + mq1];
        h &= mask, h2 &= mask;
        s->reads += pr;
        if (!tab[h])  /* a full shift to the second */
            k += mq1, s->hq_n++, s->reads += pr, h = h2;
        goto step;
    }
    s->k = k;
    return sh;
}

LOOPS_PLACED static PyObject *hashq(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    Args a;
    uint32_t tab[256] = {0};
    int q;
    if (!take(&a, args, nargs, &q, NULL))
        return NULL;
    if (q < 1 || q > 8)  /* take() checked it: no test of q in align */
        __builtin_unreachable();
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, j;
    i64 cmps = 0, dist_n = 0;
    Align al = {m, -1, 0, 0, 0, 0};  /* the first window ends at m */
    int ok = 1;
    /* hash_tables(P, q, 8), and dist[m], the constant advance */
    Py_ssize_t adv = scan(P, m, q, 8, tab, NULL);
    while (ok && al.k <= n) {
        align(&al, T, n, q, 8, tab, m - q + 1, 1, 0);
        if (al.k > n)
            break;
        Py_ssize_t start = al.k - m;  /* 0-based window start */
        j = agree(P, T + start, 0, m);
        cmps += j;
        if (j < m)
            cmps++;  /* the failing test */
        else
            ok = add(&a, start + 1);
        al.k += adv;  /* constant advance after a comparison */
        if (al.k <= n)
            dist_n++;
    }
    return result(&a, ok, cmps, 0, al.reads, al.hq_n, dist_n, 0,
                  (n >= m) + al.hq_n - al.zeros + dist_n);
}

LOOPS_PLACED static PyObject *distq(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs) {
    Args a;
    uint32_t *ks, *dist = NULL;
    int q, rolling;
    if (!take(&a, args, nargs, &q, &rolling))
        return NULL;
    const unsigned char *P = a.p.buf, *T = a.t.buf;
    Py_ssize_t n = a.t.len, m = a.p.len, d;
    i64 cmps = 0, fchecks = 0, dist_n = 0, kmp_n = 0;
    Align al = {m, -1, 0, 0, 0, 0};
    int ok = (ks = a.tab = kmp_fill(P, m, m + 1)) != NULL;
    /* hide from gcc that ok is ks != NULL: knowing it, gcc gave align's
     * pair step 7 more instructions and 3 more stack accesses, and distq
     * ran 2-5 % slower on random text */
    __asm__("" : "+r"(ok));
    int marked = ok;  /* HQ holds this pattern's entries until cleaned */
    if (marked)
        scan(P, m, q, 16, HQ, dist = ks + m + 2);
    Py_ssize_t mq1 = m - q + 1, i = 1, j = 1, pos = m;
    while (ok && al.k <= n) {
        int hashed = j <= 1;
        if (hashed) {
            /* alignment phase: hash until a shift aligns a q-gram of p */
            uint32_t sh = align(&al, T, n, q, 16, HQ, mq1, mq1, rolling);
            if (al.k > n)
                break;  /* window left the text */
            pos = m - sh;
            fchecks++;  /* the extend loop's first test */
            j = 1, i = al.k - m + 1;
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
        al.k = i + m - j;
        if (al.k <= n) {
            if (is_dist)
                dist_n++;
            else
                kmp_n++;
        }
    }
    for (Py_ssize_t x = q; marked && x <= m; x++)  /* clean what scan set */
        HQ[qgram(P, x, q, 16)] = 0;
    return result(&a, ok, cmps - fchecks, fchecks, al.reads, al.hq_n, dist_n,
                  kmp_n, (n >= m) + al.hq_n - al.zeros + dist_n + kmp_n);
}

/* bind(SearchOutcome, SearchStats, names): the classes of the records the
 * searches return, and the 7 SearchStats field names in vars() order. */
static PyObject *bind(PyObject *self, PyObject *const *args,
                      Py_ssize_t nargs) {
    if (nargs != 3 || !PyType_Check(args[0]) || !PyType_Check(args[1])
            || !PyTuple_Check(args[2]) || PyTuple_GET_SIZE(args[2]) != 7) {
        PyErr_SetString(PyExc_TypeError, "bind(class, class, 7 names)");
        return NULL;
    }
    Py_XSETREF(Outcome, (PyTypeObject *)Py_NewRef(args[0]));
    Py_XSETREF(Stats, (PyTypeObject *)Py_NewRef(args[1]));
    Py_XSETREF(StatsNames, Py_NewRef(args[2]));
    Py_RETURN_NONE;
}

#define FAST(f) (PyCFunction)(void (*)(void))f, METH_FASTCALL
static PyMethodDef methods[] = {
    {"kmp", FAST(kmp), "kmp(pattern, text)"},
    {"hashq", FAST(hashq), "hashq(pattern, text, q)"},
    {"distq", FAST(distq), "distq(pattern, text, q, rolling)"},
    {"bind", FAST(bind), "bind(outcome_class, stats_class, stats_names)"},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT, .m_name = "_engine",
    .m_doc = "Compiled searches.", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__engine(void) {
    static const char *names[] = {"occurrences", "stats", "trace"};
    for (int x = 0; x < 3; x++)
        if (Fields[x] == NULL
                && (Fields[x] = PyUnicode_InternFromString(names[x])) == NULL)
            return NULL;
    if (Empty == NULL && (Empty = PyTuple_New(0)) == NULL)
        return NULL;
    return PyModule_Create(&module);
}
