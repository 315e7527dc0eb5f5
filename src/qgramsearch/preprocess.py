"""Pattern preprocessing: shift tables for the matchers.

Tables are 1-based: the position-indexed ones carry a padding slot at index
0, so entry j lives at index j.  Each is an ``array('I')``, one contiguous
buffer of unsigned 32-bit entries; entries are at most m + 1, and a value
out of range raises ``OverflowError`` instead of wrapping.  Compare a table
with a list by value, through ``list(table)``.

:func:`build_profile` is the one builder of a pattern's tables, once
:func:`~qgramsearch.hashing.check_q` has accepted the (pattern, q) pair:

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: entry c is how far the window may jump so that its suffix q-gram
  lines up with the rightmost pattern q-gram hashing to c;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .hashing import MOD16, check_q, qgram_hashes


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
    sb = strong_border_table(pattern)
    return array("I", [0] + [j - sb[j] - 1 for j in range(1, len(sb))])


def shift_table(m: int, q: int, hs: list[int], size: int) -> array:
    """Hash shift ``array('I')`` over ``size`` hash values, from the
    q-gram hashes ``hs`` (as returned by
    :func:`~qgramsearch.hashing.qgram_hashes`)."""
    # default m-q+1; overwriting in increasing j keeps the rightmost q-gram
    table = array("I", [m - q + 1]) * size
    for j in range(q, m + 1):
        table[hs[j]] = m - j
    return table


def dist_from_hashes(m: int, q: int, hs: list[int]) -> array:
    """Distance ``array('I')`` from the q-gram hashes ``hs`` of either width.

    Entry j in [q, m] is j - p for the largest p in [q, j) with
    hs[p] == hs[j], and j - q + 1 when there is none.  Only the last
    position of each hash is kept, so the work and the memory are O(m).
    """
    # entries below q are inert: never above a real gap
    dist = array("I", [0] + [1] * m)
    last: dict[int, int] = {}
    for j in range(q, m + 1):
        h = hs[j]
        dist[j] = j - last.get(h, q - 1)
        last[h] = j
    return dist


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
    m = len(pat)
    check_q(q, m)
    hs = qgram_hashes(pat, q)
    return PatternProfile(
        pattern=pat,
        q=q,
        kmp=kmp_shift_table(pat),
        hq=shift_table(m, q, hs, MOD16),
        dist=dist_from_hashes(m, q, hs),
    )
