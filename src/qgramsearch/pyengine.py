"""The Python engine: the q-gram hashes, the Python builders of the shift
tables, and the one Python search loop of kmp, hashq, distq and ldistq.

The searches of :mod:`~qgramsearch.matchers` import this module only on a
``trace=True`` call or when no compiled engine could be loaded
(``ENGINE == "python"``), and the package serves :func:`kmp_shift_table`
from it on first use, so an untraced search on the compiled engine never
loads it.

The q-gram hashes of a q-byte window x = x[1..q], picked by ``bits``
(:func:`fingerprint`): the 16-bit (4^(q-1)*x[1] + ... + x[q]) mod 2^16 of
the distance-shift matchers, and the 8-bit (2^(q-1)*x[1] + ... + x[q])
mod 2^8 of hashq.  :func:`qgram_hashes` is the one Python evaluation of
either polynomial: it hashes the first q-gram of a sequence and rolls the
hash in constant time as the window slides one byte to the right.  The
Python table builder runs it (the compiled one hashes each q-gram afresh),
and the Python search loop inlines the same arithmetic with the base and
mask of :func:`fingerprint`.

The shift tables: ``kmp`` and ``dist`` are lists indexed by 1-based
pattern position, with a padding slot at index 0.  :func:`kmp_shift_table`
builds ``kmp``, and :func:`hash_tables` is the one builder of ``hq`` and
``dist`` (16-bit for the distance-shift matchers, 8-bit for hashq):

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: a dict from each pattern q-gram hash c to how far the window may
  jump so that its suffix q-gram lines up with the rightmost pattern q-gram
  hashing to c.  A hash no pattern q-gram has shifts by m - q + 1, so the
  searches read ``hq.get(h, m - q + 1)``;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).

The search loop, ``_distq_core``, runs kmp as distq without its q-gram
layer and hashq as distq on 8-bit hashes without its kmp layer, as
``_engine.c`` shares one alignment step between hashq and distq.  It
copies the text to ``bytes`` and reads the tables built here, so a search
takes O(m) memory beyond its occurrences.  It is the reference the
compiled searches are tested against.
"""

from .errors import ConfigurationError
from .matchers import SearchOutcome, SearchStats, SearchTrace, check_q


def fingerprint(bits: int) -> tuple[int, int]:
    """``(base, mask)``: (4, 2^16 - 1) for ``bits`` 16, (2, 2^8 - 1) for 8;
    any other ``bits`` raises :class:`ConfigurationError`."""
    if bits not in (16, 8):
        raise ConfigurationError(f"bits must be 8 or 16, got {bits}")
    return (4, 0xFFFF) if bits == 16 else (2, 0xFF)


def qgram_hashes(seq: bytes, q: int, bits: int = 16) -> list[int]:
    """Hash of every q-gram of ``seq`` in one rolling pass, O(len(seq)),
    once :func:`check_q` accepts (len(seq), q).

    Entry j (1-based, q <= j <= len(seq)) hashes seq[j-q:j]; entries below q
    are padding.  ``bits`` picks the fingerprint.  Each step removes the
    outgoing byte at weight base^(q-1) and shifts in the next:

    >>> qgram_hashes(b"abaa", 3)[3:]   # "aba", then rolled to "baa"
    [2041, 2053]
    """
    check_q(q, len(seq))
    base, mask = fingerprint(bits)
    h = 0
    for b in seq[:q]:
        h = h * base + b
    # intermediate values stay below 4^8 * 256 < 2^24, well inside 32 bits
    h &= mask
    weight = pow(base, q - 1, mask + 1)
    hs = [0] * q + [h]
    for out_byte, in_byte in zip(seq, seq[q:]):
        h = ((h - weight * out_byte) * base + in_byte) & mask
        hs.append(h)
    return hs


SHIFT_HQ = "hq"
SHIFT_DIST = "dist"
SHIFT_KMP = "kmp"


def kmp_shift_table(pattern: bytes) -> list[int]:
    """Shift amounts j - strong_border(j) - 1, entries 1..m+1 (index 0 is
    padding).

    Entry j is how far the pattern slides after a mismatch at position j
    (entry m+1: after a full match).  Every entry is in [1, j].  The strong
    border of j <= m is the longest border k < j - 1 of P[1:j-1] with
    P[k+1] != P[j] (-1 if none); that of m+1 is P's longest border < m.
    One scan reads each strong border back from the shifts already filled.

    >>> kmp_shift_table(b"aa")[1:]
    [1, 2, 1]
    """
    pat = bytes(pattern)
    m = len(pat)
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    ks = [0] * (m + 2)
    ks[1] = 1
    i, j = 0, -1  # 0-based scan position, strong border candidate length
    while i < m:
        while j > -1 and pat[i] != pat[j]:
            j -= ks[j + 1]
        i += 1
        j += 1
        ks[i + 1] = i - (j - ks[j + 1] if i < m and pat[i] == pat[j] else j)
    return ks


def hash_tables(pattern: bytes, q: int,
                bits: int = 16) -> tuple[dict[int, int], list[int]]:
    """``(hq, dist)`` for ``pattern`` from one ascending scan of its rolled
    q-gram hashes (O(m + q) work, O(m) memory) once :func:`check_q` accepts
    (pattern, q); ``bits`` (16 or 8) picks the :func:`fingerprint`."""
    m = len(pattern)
    hs = qgram_hashes(pattern, q, bits)
    hq: dict[int, int] = {}
    get = hq.get
    mq1 = m - q + 1
    dist = [0] + [1] * (q - 1)  # padding, then inert entries below q
    for j in range(q, m + 1):
        h = hs[j]
        # hq[h] is m - p for the last p < j with this hash; with none, the
        # default m - q + 1 reads as p = q - 1
        dist.append(j - (m - get(h, mq1)))
        hq[h] = m - j
    return hq, dist


def _distq_core(text: bytes, p: bytes, q: int | None, rolling: bool,
                trace: bool, bits: int = 16) -> SearchOutcome:
    """The one Python loop of kmp_search, hashq_search, distq_search and
    ldistq_search, each of which calls the compiled engine itself.

    kmp is distq without its q-gram layer: with ``q`` None nothing is
    hashed, no alignment phase runs and every shift is a kmp shift.  hashq
    (``bits`` 8) is distq on 8-bit hashes without its kmp layer: the
    alignment phase runs before every window and ends only at a zero shift,
    the window is compared from its first byte, and the constant advance
    dist[m] follows; hashq logs no q-gram positions and counts each
    window's first byte test in char_comparisons.
    ``rolling`` selects how the alignment-phase window hash is obtained;
    every shift decision is identical in both modes, so distq and ldistq
    produce the same occurrences and the same trace by construction.
    """
    t = bytes(text)
    n, m = len(t), len(p)
    log = SearchTrace() if trace else None
    ks = kmp_shift_table(p) if bits == 16 else None
    # an alignment phase runs while j <= top: never (kmp), when no partial
    # match is held (distq), or before every window (hashq)
    top = 0 if q is None else 1 if ks else m
    if q is not None:
        hq_tab, dist_tab = hash_tables(p, q, bits)
        shift = hq_tab.get
        base, mask = fingerprint(bits)
        weight = pow(base, q - 1, mask + 1)  # of a window's leading byte
        mq1 = m - q + 1  # the shift of a hash no pattern q-gram has
        # the phase ends at a shift below lo: one that aligns some pattern
        # q-gram (distq), or only a zero shift (hashq)
        lo = mq1 if ks else 1

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
        hashed = j <= top
        if hashed:
            # --- alignment phase: hash until a shift below lo ---
            while True:
                e = k
                # the qgram_hashes polynomial, afresh or rolled, inlined
                if rolling and 0 <= e - last_end < q:
                    d = e - last_end
                    h = last_h
                    # d single-byte steps; each consumes one new text byte
                    for s in range(d):
                        h = ((h - weight * t[last_end - q + s]) * base
                             + t[last_end + s]) & mask
                    reads += d
                else:
                    h = 0
                    for c in t[e - q:e]:
                        h = h * base + c
                    h &= mask
                    reads += q
                last_end = e
                last_h = h
                if trace:
                    log.hash_ends.append(e)
                sh = shift(h, mq1)
                k += sh
                if k > n:
                    break
                hq_n += 1
                if sh:
                    windows += 1
                if trace:
                    log.shifts.append((SHIFT_HQ, sh))
                if sh < lo:
                    break
            if k > n:
                break  # window left the text
            pos = m - sh  # m for hashq, whose phase ends at a zero shift
            if trace and ks:
                log.positions.append(pos)
            fchecks += 1  # the extend loop's first test (see SearchStats)
            j = 1
            i = k - m + 1
        # --- comparison or border phase: extend the match held in j, then
        # a kmp shift, or the larger of the dist and kmp shifts after an
        # alignment.  There a first-byte mismatch takes the dist shift
        # (ks[1] = 1 <= dist) and leaves j <= 0: hash again next. ---
        while j <= m and p[j - 1] == t[i - 1]:
            cmps += 1
            i += 1
            j += 1
        if j <= m:
            cmps += 1  # the failing test
        else:
            occ.append(i - m)
        by_dist = False
        if hashed:
            d = dist_tab[pos]
            # hashq always advances by it: dist[m], as its pos is m
            by_dist = ks is None or d >= j - 1 and d >= ks[j]
        amt = d if by_dist else ks[j]
        j -= amt
        if j == 0:  # resume at the next text byte against the pattern head,
            i += 1  # under the same window end; distq then hashes anew
            j = 1
        k = i + m - j
        if k <= n:
            if by_dist:
                dist_n += 1
            else:
                kmp_n += 1
            if trace:
                log.shifts.append((SHIFT_DIST if by_dist else SHIFT_KMP, amt))
    if ks is None:  # hashq counts the first byte test as a comparison
        fchecks = 0
    # dist and kmp shifts are >= 1: each recorded one opens a window
    return SearchOutcome(occ, SearchStats(
        char_comparisons=cmps - fchecks, first_char_checks=fchecks,
        hashed_char_reads=reads, hq_shifts=hq_n, dist_shifts=dist_n,
        kmp_shifts=kmp_n, windows=windows + dist_n + kmp_n), log)
