"""Pattern preprocessing: shift tables for the matchers.

Tables are 1-based: the position-indexed ones carry a padding slot at index
0, so entry j lives at index j.  Each is an ``array('I')``, one contiguous
buffer of unsigned 32-bit entries; entries are at most m + 1, and a value
out of range raises ``OverflowError`` instead of wrapping.  Compare a table
with a list by value, through ``list(table)``.

:func:`build_profile` builds the tables below; :func:`hash_tables` is the
one builder of ``hq`` and ``dist`` (16-bit here, 8-bit for ``hashq_search``):

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: entry c is how far the window may jump so that its suffix q-gram
  lines up with the rightmost pattern q-gram hashing to c;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).

:func:`hash_tables` gets both from one ascending scan over an ``hq``
prefilled with m - q + 1, a value no real shift takes: an entry still
holding it marks a hash not seen yet, so the scan needs no map of last
positions and touches O(m) entries.  :func:`hash_tables` and
:func:`kmp_shift_table` fill their tables in the compiled engine (see
:mod:`qgramsearch.native`) when it is loaded; their Python bodies run the
same scans and are the reference it is tested against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .hashing import _MASK16, check_q, qgram_hashes
from .native import engine


def strong_border_table(pattern: bytes) -> list[int]:
    """Strong border lengths, entries 1..m+1 (index 0 is padding).

    Entry j < m+1 is the length of the longest proper border k of
    P[1:j-1] whose following character differs from P[j] (-1 if none,
    counting the empty border only when P[1] != P[j]).  Entry m+1 is the
    plain longest border length of the whole pattern.

    >>> strong_border_table(b"a")[1:]
    [-1, 0]
    """
    pat = bytes(pattern)
    m = len(pat)
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    sb = [0] * (m + 2)
    sb[1] = -1
    i = 0  # 0-based scan position; sb[i+1] is being produced
    j = -1  # current strong border candidate length
    while i < m:
        while j > -1 and pat[i] != pat[j]:
            j = sb[j + 1]
        i += 1
        j += 1
        if i < m and pat[i] == pat[j]:
            sb[i + 1] = sb[j + 1]
        else:
            sb[i + 1] = j
    return sb


def kmp_shift_table(pattern: bytes) -> array:
    """Shift amounts j - strong_border(j) - 1, entries 1..m+1, as an
    ``array('I')`` (index 0 is padding).

    Entry j is how far the pattern slides after a mismatch at position j
    (entry m+1: after a full match).  Every entry is in [1, j].

    >>> list(kmp_shift_table(b"aa")[1:])
    [1, 2, 1]
    """
    if engine is None or not pattern:  # b"" raises ConfigurationError here
        sb = strong_border_table(pattern)
        return array("I", [0] + [j - sb[j] - 1 for j in range(1, len(sb))])
    ks = array("I", [0]) * (len(pattern) + 2)
    engine.tables(pattern, ks)
    return ks


def hash_tables(pattern: bytes, q: int, base: int = 4,
                mask: int = _MASK16) -> tuple[array, array]:
    """``(hq, dist)`` for ``pattern`` from one scan of its q-gram hashes,
    once :func:`~qgramsearch.hashing.check_q` accepts (pattern, q).

    ``base``/``mask`` pick the fingerprint as in
    :func:`~qgramsearch.hashing.qgram_hashes`; ``hq`` has ``mask + 1``
    entries.  Dist entry j in [q, m] is j - p for the largest p in [q, j)
    with the same hash as j, or j - q + 1 when there is none.  One
    ascending scan gives both: O(m) work beyond allocating ``hq``.
    """
    m = len(pattern)
    check_q(q, m)
    # before the scan's temporaries: after them, CLI peak RSS rose ~0.12 MB
    hq = array("I", [m - q + 1]) * (mask + 1)
    # entries below q are inert: never above a real gap
    dist = array("I", [0] + [1] * m)
    if engine is not None:
        engine.tables(pattern, None, q, base, mask, hq, dist)
        return hq, dist
    hs = qgram_hashes(pattern, q, base, mask)
    for j in range(q, m + 1):
        h = hs[j]
        # hq[h] is m - p for the last p < j with this hash, or the prefill
        # m - q + 1 (no real shift) when there is none, read as p = q - 1
        dist[j] = j - (m - hq[h])
        hq[h] = m - j
    return hq, dist


@dataclass(frozen=True)
class PatternProfile:
    """Everything the distance-shift matchers need about one pattern.

    ``kmp`` (entries 1..m+1), ``hq`` (one entry per 16-bit hash) and
    ``dist`` (entries 1..m) are ``array('I')`` tables, shared, not copied;
    treat them as read-only.
    """

    pattern: bytes
    q: int
    kmp: array = field(repr=False)
    hq: array = field(repr=False)
    dist: array = field(repr=False)


def build_profile(pattern: bytes, q: int) -> PatternProfile:
    """Build all shift tables for ``pattern`` at q-gram size ``q``.

    The pattern q-gram hashes come from a single rolling pass, so
    preprocessing is O(m) plus the table allocations.
    """
    pat = bytes(pattern)
    hq, dist = hash_tables(pat, q)
    return PatternProfile(pattern=pat, q=q, kmp=kmp_shift_table(pat),
                          hq=hq, dist=dist)
