"""Exact byte-string matchers.

Five matchers share one reporting convention (1-based, overlapping
occurrences, sorted ascending):

* ``naive_search``   - window-by-window comparison; the correctness oracle.
* ``kmp_search``     - strong-border shifting, at most 2n character tests.
* ``hashq_search``   - 8-bit q-gram hash shifts, then left-to-right compare.
* ``distq_search``   - 16-bit hash shifts layered with the q-gram distance
                       table and border shifts; hashes each window afresh.
* ``ldistq_search``  - same shift decisions as distq_search, but the window
                       hash is rolled forward whenever the next window end is
                       less than q bytes away, so at most O(n + m) bytes are
                       ever hashed.

``MATCHERS`` maps each name to a runner with one signature and is the one
list of algorithms that the CLI and the benchmark harness read.

Every matcher except the naive one returns a :class:`SearchOutcome`.  Its
:class:`SearchStats` counters are kept as plain integers in the search loop,
each at the point where the counted event happens.  A :class:`SearchTrace`
is built only when the matcher is called with ``trace=True``; otherwise
``outcome.trace`` is ``None`` and the search holds no per-event memory.

Untraced kmp, hashq, distq and ldistq searches run the compiled searches
of ``_engine.c`` (see :mod:`qgramsearch.native`) once the pattern and q
are validated.  Each builds its own shift tables from the pattern, returns
the same occurrences and counters, and reads the caller's text in place
(any C-contiguous bytes-like object).  The Python loops below, which copy
the text to ``bytes`` and read the tables of the
:mod:`~qgramsearch.preprocess` builders, run every traced search and every
search when no compiled engine could be loaded, and are the reference the
compiled searches are tested against.

A shift event is recorded (counted, and traced when asked) only when the
pattern lands on an alignment that still fits inside the text (the trailing
shift that walks the window off the end is performed but not recorded, so
the trace lists exactly the transitions between examined alignments).
Hash-shift events may carry amount 0: the table confirmed the current
alignment without moving it.
"""

from __future__ import annotations

from .errors import ConfigurationError, _Record
from .hashing import MOD16, _MASK8, _MASK16, check_q
from .native import engine
from .preprocess import PatternProfile, build_profile, hash_tables, \
    kmp_shift_table

SHIFT_HQ = "hq"
SHIFT_DIST = "dist"
SHIFT_KMP = "kmp"


class SearchStats(_Record):
    """Work counters for one search run.

    char_comparisons counts pattern-vs-text byte tests during window
    comparison; the first-byte test that opens each hash-aligned window is
    counted in first_char_checks instead, so the 2n bound stays visible.
    hashed_char_reads counts text bytes consumed by hashing: q per fresh
    hash, 1 per rolling step.  hq_shifts, dist_shifts and kmp_shifts count
    the recorded shifts of each rule.  windows is the number of alignments
    examined: 1 + the number of recorded shifts with a positive amount, or
    0 when the text is shorter than the pattern (n < m).
    """

    def __init__(self, char_comparisons=0, first_char_checks=0,
                 hashed_char_reads=0, hq_shifts=0, dist_shifts=0,
                 kmp_shifts=0, windows=0):
        self.char_comparisons = char_comparisons
        self.first_char_checks = first_char_checks
        self.hashed_char_reads = hashed_char_reads
        self.hq_shifts = hq_shifts
        self.dist_shifts = dist_shifts
        self.kmp_shifts = kmp_shifts
        self.windows = windows


class SearchTrace(_Record):
    """Per-event log: shift events (kind, amount), alignment q-gram
    positions, and the text positions at which window hashes ended."""

    def __init__(self, shifts=None, positions=None, hash_ends=None):
        self.shifts = [] if shifts is None else shifts
        self.positions = [] if positions is None else positions
        self.hash_ends = [] if hash_ends is None else hash_ends


class SearchOutcome(_Record):
    def __init__(self, occurrences: list[int], stats: SearchStats,
                 trace: SearchTrace | None):  # None unless trace=True
        self.occurrences, self.stats, self.trace = occurrences, stats, trace


def _compiled(r: tuple) -> SearchOutcome:
    """Outcome of a compiled loop's result ``r``: the occurrences followed
    by the counters in :class:`SearchStats` field order."""
    return SearchOutcome(r[0], SearchStats(r[1], r[2], r[3], r[4], r[5],
                                           r[6], r[7]), None)


def naive_search(text: bytes, pattern: bytes) -> list[int]:
    """All 1-based occurrence positions by direct window comparison.

    This is the oracle the other matchers are judged against; it stays one
    obvious comparison per window on purpose.
    """
    t = bytes(text)
    p = bytes(pattern)
    if not p:
        raise ConfigurationError("pattern must be non-empty")
    m = len(p)
    return [i + 1 for i in range(len(t) - m + 1) if t[i:i + m] == p]


def kmp_search(text: bytes, pattern: bytes,
               trace: bool = False) -> SearchOutcome:
    """Strong-border matcher; at most 2n character comparisons."""
    p = bytes(pattern)
    if not p:
        raise ConfigurationError("pattern must be non-empty")
    if engine is not None and not trace:
        return _compiled(engine.kmp(p, text))
    t = bytes(text)
    n, m = len(t), len(p)
    log = SearchTrace() if trace else None
    if n < m:
        return SearchOutcome([], SearchStats(), log)
    # read about once per text byte: CPython specialises list subscripts,
    # not array ones, and this private copy costs O(m) per call
    ks = kmp_shift_table(p).tolist()
    last_start = n - m + 1  # rightmost alignment that fits
    occ: list[int] = []
    cmps = kmp_n = 0
    i = 1  # text cursor
    j = 1  # pattern cursor; window starts at i - j + 1
    # the window always fits here: i - j + 1 <= last_start, so i <= n
    while True:
        if j == 0:
            # resume at the next text byte against the pattern head
            i += 1
            j = 1
            continue
        cmps += 1
        if p[j - 1] == t[i - 1]:
            i += 1
            j += 1
            if j <= m:
                continue
            occ.append(i - m)
        # after a full match (j = m + 1) or a mismatch at j
        amt = ks[j]
        j -= amt
        if i - j + 1 > last_start:
            break  # the next window does not fit
        kmp_n += 1
        if trace:
            log.shifts.append((SHIFT_KMP, amt))
    # every kmp shift is positive, so each recorded one opens a window
    return SearchOutcome(occ, SearchStats(
        char_comparisons=cmps, kmp_shifts=kmp_n, windows=1 + kmp_n), log)


def hashq_search(text: bytes, pattern: bytes, q: int,
                 trace: bool = False) -> SearchOutcome:
    """8-bit hash-shift matcher.

    The window end jumps by the table amount until the suffix q-gram hash
    matches the pattern's (shift 0); the window is then compared left to
    right and advanced by a constant precomputed from the first repeat of
    the suffix hash inside the pattern.
    """
    p = bytes(pattern)
    check_q(q, len(p))
    if engine is not None and not trace:
        return _compiled(engine.hashq(p, text, q))
    table, dist = hash_tables(p, q, 8)
    t = bytes(text)
    n, m = len(t), len(p)
    # constant advance after a comparison: back to the suffix hash's last
    # earlier occurrence in the pattern
    adv = dist[m]
    log = SearchTrace() if trace else None

    occ: list[int] = []
    cmps = reads = hq_n = dist_n = 0
    windows = 1 if n >= m else 0  # the first alignment, if it fits
    k = m  # window end
    while k <= n:
        # qgram_hash8 of the window's suffix q-gram, inlined (see hashing.py)
        h = 0
        for c in t[k - q:k]:
            h = h * 2 + c
        h &= _MASK8
        reads += q
        if trace:
            log.hash_ends.append(k)
        sh = table[h]
        k += sh
        if k > n:
            break
        hq_n += 1
        if trace:
            log.shifts.append((SHIFT_HQ, sh))
        if sh:
            windows += 1
            continue
        start = k - m  # 0-based window start
        j = 0
        while j < m and p[j] == t[start + j]:
            cmps += 1
            j += 1
        if j < m:
            cmps += 1  # the failing test
        else:
            occ.append(start + 1)
        k += adv
        if k <= n:
            dist_n += 1
            windows += 1  # adv >= 1
            if trace:
                log.shifts.append((SHIFT_DIST, adv))
    return SearchOutcome(occ, SearchStats(
        char_comparisons=cmps, hashed_char_reads=reads, hq_shifts=hq_n,
        dist_shifts=dist_n, windows=windows), log)


def _distq_core(text: bytes, profile: PatternProfile, rolling: bool,
                trace: bool) -> SearchOutcome:
    """Shared engine of distq_search / ldistq_search.

    ``rolling`` selects how the alignment-phase window hash is obtained;
    every shift decision is identical in both modes, so the two matchers
    produce the same occurrences and the same trace by construction.
    """
    if engine is not None and not trace:
        return _compiled(engine.distq(profile.pattern, text, profile.q,
                                      rolling))
    t = bytes(text)
    p = profile.pattern
    n, m = len(t), len(p)
    q = profile.q
    log = SearchTrace() if trace else None
    hq_tab, dist_tab = hash_tables(p, q)
    ks = kmp_shift_table(p)
    pow4 = pow(4, q - 1, MOD16)  # weight of a window's leading byte
    mq1 = m - q + 1

    occ: list[int] = []
    cmps = fchecks = reads = hq_n = dist_n = kmp_n = 0
    windows = 1 if n >= m else 0  # the first alignment, if it fits

    i = 1  # text cursor (1-based)
    j = 1  # pattern cursor; <= 1 means no partial match is held
    k = m  # window end (1-based)
    pos = m  # pattern position of the q-gram aligned by the last hash shift
    last_end = -1  # rolling cache: end position and hash of the last window
    last_h = 0

    while k <= n:
        hashed = j <= 1
        if hashed:
            # --- alignment phase: hash until a shift aligns a q-gram of p ---
            while True:
                e = k
                # qgram_hash16, or the qgram_hashes roll, inlined (hashing.py)
                if rolling and 0 <= e - last_end < q:
                    d = e - last_end
                    h = last_h
                    # d single-byte steps; each consumes one new text byte
                    for s in range(d):
                        h = ((h - pow4 * t[last_end - q + s]) * 4
                             + t[last_end + s]) & _MASK16
                    reads += d
                else:
                    h = 0
                    for c in t[e - q:e]:
                        h = h * 4 + c
                    h &= _MASK16
                    reads += q
                last_end = e
                last_h = h
                if trace:
                    log.hash_ends.append(e)
                sh = hq_tab[h]
                k += sh
                if k > n:
                    break
                hq_n += 1
                if sh:
                    windows += 1
                if trace:
                    log.shifts.append((SHIFT_HQ, sh))
                if sh != mq1:
                    break  # some pattern q-gram hashes like this one
            if k > n:
                break  # window left the text
            pos = m - sh
            if trace:
                log.positions.append(pos)
            fchecks += 1  # the extend loop's first test (see SearchStats)
            j = 1
            i = k - m + 1
        # --- comparison or border phase: extend the match held in j, then
        # a dist-or-kmp or kmp shift.  A first-byte mismatch takes the dist
        # shift (ks[1] = 1 <= dist) and leaves j <= 0: hash again next. ---
        while j <= m and p[j - 1] == t[i - 1]:
            cmps += 1
            i += 1
            j += 1
        if j <= m:
            cmps += 1  # the failing test
        else:
            occ.append(i - m)
        amt = ks[j]
        kind = SHIFT_KMP
        if hashed:
            d = dist_tab[pos]
            if d >= j - 1 and d >= amt:
                amt = d
                kind = SHIFT_DIST
        j -= amt
        k = i + m - j
        if k <= n:
            windows += 1  # dist and kmp shifts are >= 1
            if kind == SHIFT_DIST:
                dist_n += 1
            else:
                kmp_n += 1
            if trace:
                log.shifts.append((kind, amt))
    return SearchOutcome(occ, SearchStats(
        char_comparisons=cmps - fchecks, first_char_checks=fchecks,
        hashed_char_reads=reads, hq_shifts=hq_n, dist_shifts=dist_n,
        kmp_shifts=kmp_n, windows=windows), log)


def distq_search(text: bytes, profile: PatternProfile,
                 trace: bool = False) -> SearchOutcome:
    """Distance-shift matcher; every window hash is computed from scratch."""
    return _distq_core(text, profile, rolling=False, trace=trace)


def ldistq_search(text: bytes, profile: PatternProfile,
                  trace: bool = False) -> SearchOutcome:
    """Distance-shift matcher with rolling window hashes.

    Window end positions never decrease, so reusing the previous hash when
    the next end is less than q bytes ahead caps hashed text bytes at
    O(n + m) overall.
    """
    return _distq_core(text, profile, rolling=True, trace=trace)


# The one list of algorithms: name -> (runner, takes_q).  A runner maps
# (text, pattern, q) to a SearchOutcome, pattern preprocessing included;
# runners that take no q ignore it.
MATCHERS = {
    "naive": (lambda text, pattern, q: SearchOutcome(
        naive_search(text, pattern), SearchStats(), None), False),
    "kmp": (lambda text, pattern, q: kmp_search(text, pattern), False),
    "hashq": (hashq_search, True),
    "distq": (lambda text, pattern, q:
              distq_search(text, build_profile(pattern, q)), True),
    "ldistq": (lambda text, pattern, q:
               ldistq_search(text, build_profile(pattern, q)), True),
}
ALGORITHMS = tuple(MATCHERS)
