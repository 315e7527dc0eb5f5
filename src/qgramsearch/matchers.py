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

Every matcher except the naive one returns a :class:`SearchOutcome` with
instrumentation counters and a shift trace.  Counters are collected
unconditionally; there is a single code path.

A shift event is recorded only when the pattern lands on an alignment that
still fits inside the text (the trailing shift that walks the window off the
end is performed but not logged, so the trace lists exactly the transitions
between examined alignments).  Hash-shift events may carry amount 0: the
table confirmed the current alignment without moving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hashing import MAX_Q, MOD8, _MASK8, _MASK16, qgram_hashes
from .preprocess import PatternProfile, build_profile, kmp_shift_table, \
    shift_table, validate_q

SHIFT_HQ = "hq"
SHIFT_DIST = "dist"
SHIFT_KMP = "kmp"


@dataclass
class SearchStats:
    """Work counters for one search run.

    char_comparisons counts pattern-vs-text byte tests during window
    comparison; the alignment phase's single first-byte probe is kept in
    first_char_checks so the 2n comparison bound stays visible on its own.
    hashed_char_reads counts text bytes consumed by hashing: q per fresh
    hash, 1 per rolling step.  windows is the number of alignments examined.
    """

    char_comparisons: int = 0
    first_char_checks: int = 0
    hashed_char_reads: int = 0
    hq_shifts: int = 0
    dist_shifts: int = 0
    kmp_shifts: int = 0
    windows: int = 0


@dataclass
class SearchTrace:
    """Per-event log: shift events (kind, amount), alignment q-gram
    positions, and the text positions at which window hashes ended."""

    shifts: list[tuple[str, int]] = field(default_factory=list)
    positions: list[int] = field(default_factory=list)
    hash_ends: list[int] = field(default_factory=list)


@dataclass
class SearchOutcome:
    occurrences: list[int]
    stats: SearchStats
    trace: SearchTrace


def _empty_outcome() -> SearchOutcome:
    return SearchOutcome([], SearchStats(), SearchTrace())


def _finish(occ, shifts, positions, hash_ends, cmps, fchecks, reads) -> SearchOutcome:
    stats = SearchStats(
        char_comparisons=cmps,
        first_char_checks=fchecks,
        hashed_char_reads=reads,
        hq_shifts=sum(1 for kind, _ in shifts if kind == SHIFT_HQ),
        dist_shifts=sum(1 for kind, _ in shifts if kind == SHIFT_DIST),
        kmp_shifts=sum(1 for kind, _ in shifts if kind == SHIFT_KMP),
        windows=1 + sum(1 for _, amt in shifts if amt > 0),
    )
    return SearchOutcome(occ, stats, SearchTrace(shifts, positions, hash_ends))


def naive_search(text: bytes, pattern: bytes) -> list[int]:
    """All 1-based occurrence positions by direct window comparison.

    This is the oracle the other matchers are judged against; it stays a
    one-liner on purpose.
    """
    t = bytes(text)
    p = bytes(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    m = len(p)
    return [i + 1 for i in range(len(t) - m + 1) if t[i:i + m] == p]


def kmp_search(text: bytes, pattern: bytes) -> SearchOutcome:
    """Strong-border matcher; at most 2n character comparisons."""
    t = bytes(text)
    p = bytes(pattern)
    if not p:
        raise ValueError("pattern must be non-empty")
    n, m = len(t), len(p)
    if n < m:
        return _empty_outcome()
    ks = kmp_shift_table(p)
    last_start = n - m + 1  # rightmost alignment that fits
    occ: list[int] = []
    shifts: list[tuple[str, int]] = []
    cmps = 0
    i = 1  # text cursor
    j = 1  # pattern cursor; window starts at i - j + 1
    while i <= n:
        if j == 0:
            # resume at the next text byte against the pattern head
            i += 1
            j = 1
            continue
        cmps += 1
        if p[j - 1] == t[i - 1]:
            i += 1
            j += 1
            if j == m + 1:
                occ.append(i - m)
                amt = ks[j]
                j -= amt
                if i - j + 1 <= last_start:
                    shifts.append((SHIFT_KMP, amt))
        else:
            amt = ks[j]
            j -= amt
            if i - j + 1 <= last_start:
                shifts.append((SHIFT_KMP, amt))
    return _finish(occ, shifts, [], [], cmps, 0, 0)


def hashq_search(text: bytes, pattern: bytes, q: int) -> SearchOutcome:
    """8-bit hash-shift matcher.

    The window end jumps by the table amount until the suffix q-gram hash
    matches the pattern's (shift 0); the window is then compared left to
    right and advanced by a constant precomputed from the first repeat of
    the suffix hash inside the pattern.
    """
    t = bytes(text)
    p = bytes(pattern)
    n, m = len(t), len(p)
    validate_q(m, q)
    if n < m:
        return _empty_outcome()

    hs = qgram_hashes(p, q, 2, _MASK8)
    table = shift_table(m, q, hs, MOD8)
    # constant advance after a comparison: first k with an equal suffix hash
    adv = m - q + 1
    for k in range(1, m - q + 1):
        if hs[m - k] == hs[m]:
            adv = k
            break

    occ: list[int] = []
    shifts: list[tuple[str, int]] = []
    hash_ends: list[int] = []
    cmps = 0
    reads = 0
    k = m  # window end
    while k <= n:
        # qgram_hash8 of the window's suffix q-gram, inlined (see hashing.py)
        h = 0
        for idx in range(k - q, k):
            h = h * 2 + t[idx]
        h &= _MASK8
        reads += q
        hash_ends.append(k)
        sh = table[h]
        if sh:
            k += sh
            if k <= n:
                shifts.append((SHIFT_HQ, sh))
            continue
        shifts.append((SHIFT_HQ, 0))
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
            shifts.append((SHIFT_DIST, adv))
    return _finish(occ, shifts, [], hash_ends, cmps, 0, reads)


def _distq_core(text: bytes, profile: PatternProfile, rolling: bool) -> SearchOutcome:
    """Shared engine of distq_search / ldistq_search.

    ``rolling`` selects how the alignment-phase window hash is obtained;
    every shift decision is identical in both modes, so the two matchers
    produce the same occurrences and the same trace by construction.
    """
    t = bytes(text)
    p = profile.pattern
    n, m = len(t), len(p)
    q = profile.q
    if n < m:
        return _empty_outcome()
    hq_tab = profile.hq
    dist_tab = profile.dist
    ks = profile.kmp
    pow4 = profile.ctx.pow4
    mq1 = m - q + 1
    first_byte = p[0]

    occ: list[int] = []
    shifts: list[tuple[str, int]] = []
    positions: list[int] = []
    hash_ends: list[int] = []
    cmps = 0
    fchecks = 0
    reads = 0

    i = 1  # text cursor (1-based)
    j = 1  # pattern cursor; <= 1 means no partial match is held
    k = m  # window end (1-based)
    pos = m  # pattern position of the q-gram aligned by the last hash shift
    last_end = -1  # rolling cache: end position and hash of the last window
    last_h = 0

    while k <= n:
        if j <= 1:
            # --- alignment phase: place the window by suffix q-gram hash ---
            matched_first = False
            while True:
                e = k
                # qgram_hash16 / roll_hash16 inlined (see hashing.py)
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
                    for idx in range(e - q, e):
                        h = h * 4 + t[idx]
                    h &= _MASK16
                    reads += q
                last_end = e
                last_h = h
                hash_ends.append(e)
                sh = hq_tab[h]
                k += sh
                if sh != mq1:
                    pos = m - sh
                    if k > n:
                        break
                    shifts.append((SHIFT_HQ, sh))
                    positions.append(pos)
                    fchecks += 1
                    if first_byte == t[k - m]:
                        matched_first = True
                        break
                    d = dist_tab[pos]
                    k += d
                    if k > n:
                        break
                    shifts.append((SHIFT_DIST, d))
                else:
                    if k > n:
                        break
                    shifts.append((SHIFT_HQ, sh))
            if not matched_first:
                break  # window left the text
            # --- comparison phase: first byte matched, walk the rest ---
            j = 2
            i = k - m + 2
            while j <= m and p[j - 1] == t[i - 1]:
                cmps += 1
                i += 1
                j += 1
            if j <= m:
                cmps += 1  # the failing test
            if j == m + 1:
                occ.append(i - m)
            d = dist_tab[pos]
            if d >= j - 1 and d >= ks[j]:
                j -= d
                kind = SHIFT_DIST
                amt = d
            else:
                amt = ks[j]
                j -= amt
                kind = SHIFT_KMP
            k = i + m - j
            if k <= n:
                shifts.append((kind, amt))
        else:
            # --- border phase: extend the partial match kept in j ---
            while j <= m and p[j - 1] == t[i - 1]:
                cmps += 1
                i += 1
                j += 1
            if j <= m:
                cmps += 1
            if j == m + 1:
                occ.append(i - m)
            amt = ks[j]
            j -= amt
            k = i + m - j
            if k <= n:
                shifts.append((SHIFT_KMP, amt))
    return _finish(occ, shifts, positions, hash_ends, cmps, fchecks, reads)


def distq_search(text: bytes, profile: PatternProfile) -> SearchOutcome:
    """Distance-shift matcher; every window hash is computed from scratch."""
    return _distq_core(text, profile, rolling=False)


def ldistq_search(text: bytes, profile: PatternProfile) -> SearchOutcome:
    """Distance-shift matcher with rolling window hashes.

    Window end positions never decrease, so reusing the previous hash when
    the next end is less than q bytes ahead caps hashed text bytes at
    O(n + m) overall.
    """
    return _distq_core(text, profile, rolling=True)


def clamp_q(q: int, m: int) -> int:
    """The q that a q-taking matcher runs with on a length-m pattern."""
    return min(q, m, MAX_Q)


# The one list of algorithms: name -> (runner, takes_q).  A runner maps
# (text, pattern, q) to a SearchOutcome, pattern preprocessing included;
# runners that take no q ignore it.
MATCHERS = {
    "naive": (lambda text, pattern, q: SearchOutcome(
        naive_search(text, pattern), SearchStats(), SearchTrace()), False),
    "kmp": (lambda text, pattern, q: kmp_search(text, pattern), False),
    "hashq": (hashq_search, True),
    "distq": (lambda text, pattern, q:
              distq_search(text, build_profile(pattern, q)), True),
    "ldistq": (lambda text, pattern, q:
               ldistq_search(text, build_profile(pattern, q)), True),
}
ALGORITHMS = tuple(MATCHERS)
