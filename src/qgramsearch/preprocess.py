"""Pattern preprocessing: shift tables for the matchers.

Tables are 1-based: the position-indexed ones carry a padding slot at index
0, so entry j lives at index j.  Each is an ``array('I')``, one contiguous
buffer of unsigned 32-bit entries; entries are at most m + 1, and a value
out of range raises ``OverflowError`` instead of wrapping.  Compare a table
with a list by value, through ``list(table)``.

:func:`build_profile` builds the ``kmp`` and ``dist`` tables below;
:func:`hash_tables` is the one builder of ``hq`` and ``dist`` (16-bit for
``PatternProfile.hq``, 8-bit for ``hashq_search``):

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: entry c is how far the window may jump so that its suffix q-gram
  lines up with the rightmost pattern q-gram hashing to c;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).

Both come from one ascending scan of the pattern's q-gram hashes over an
``hq`` prefilled with m - q + 1, a value no real shift takes: an entry
still holding it marks a hash not seen yet, so the scan needs no map of
last positions and touches O(m) entries.  :func:`hash_tables` and
:func:`kmp_shift_table` fill their tables in the compiled engine (see
:mod:`qgramsearch.native`) when it is loaded; their Python bodies run the
same scans and are the reference it is tested against.  Given no ``hq`` to
fill, the compiled scan runs through a 16-bit table of the engine's own and
leaves it clean, so :func:`build_profile` gets ``dist`` without any
2^16-entry table; the compiled distq search sets and clears that table's
O(m) entries itself.
"""

from __future__ import annotations

from array import array

from .errors import ConfigurationError, _FrozenRecord
from .hashing import check_q, fingerprint, qgram_hashes
from .native import engine


def kmp_shift_table(pattern: bytes) -> array:
    """Shift amounts j - strong_border(j) - 1, entries 1..m+1, as an
    ``array('I')`` (index 0 is padding).

    Entry j is how far the pattern slides after a mismatch at position j
    (entry m+1: after a full match).  Every entry is in [1, j].  The strong
    border of j <= m is the longest border k < j - 1 of P[1:j-1] with
    P[k+1] != P[j] (-1 if none); that of m+1 is P's longest border < m.

    >>> list(kmp_shift_table(b"aa")[1:])
    [1, 2, 1]
    """
    pat = bytes(pattern)
    m = len(pat)
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    ks = array("I", [0]) * (m + 2)
    if engine is not None:
        engine.kmp_table(pat, ks)
        return ks
    ks[1] = 1
    i, j = 0, -1  # 0-based scan position, strong border candidate length
    while i < m:
        while j > -1 and pat[i] != pat[j]:
            j -= ks[j + 1]
        i += 1
        j += 1
        ks[i + 1] = i - (j - ks[j + 1] if i < m and pat[i] == pat[j] else j)
    return ks


def hash_tables(pattern: bytes, q: int, bits: int = 16) -> tuple[array, array]:
    """``(hq, dist)`` for ``pattern`` from one scan of its q-gram hashes,
    once :func:`~qgramsearch.hashing.check_q` accepts (pattern, q).

    ``bits`` (16 or 8) picks the fingerprint as in
    :func:`~qgramsearch.hashing.fingerprint`; ``hq`` has 2^bits entries.
    Dist entry j in [q, m] is j - p for the largest p in [q, j) with the
    same hash as j, or j - q + 1 when there is none.  One ascending scan
    gives both: O(mq) work beyond allocating ``hq``.
    """
    m = len(pattern)
    check_q(q, m)
    _, mask = fingerprint(bits)
    # before the scan's temporaries: after them, CLI peak RSS rose ~0.12 MB
    hq = array("I", [m - q + 1]) * (mask + 1)
    # entries below q are inert: never above a real gap
    dist = array("I", [0] + [1] * m)
    if engine is not None:
        engine.hash_tables(pattern, q, bits, hq, dist)
        return hq, dist
    hs = qgram_hashes(pattern, q, bits)
    for j in range(q, m + 1):
        h = hs[j]
        # hq[h] is m - p for the last p < j with this hash, or the prefill
        # m - q + 1 (no real shift) when there is none, read as p = q - 1
        dist[j] = j - (m - hq[h])
        hq[h] = m - j
    return hq, dist


class PatternProfile(_FrozenRecord):
    """Everything the distance-shift matchers need about one pattern.

    ``kmp`` (entries 1..m+1) and ``dist`` (entries 1..m) are ``array('I')``
    tables, shared, not copied; treat them as read-only.  The repr leaves
    them out.  ``hq`` is not a field: see :attr:`hq`.
    """

    def __init__(self, pattern: bytes, q: int, kmp, dist):
        self.__dict__.update(pattern=pattern, q=q, kmp=kmp, dist=dist)

    @property
    def hq(self) -> array:
        """The 16-bit ``hq`` table (one entry per hash), built afresh by
        :func:`hash_tables` on each read: O(2^16 + mq).  The traced and
        Python searches read it; the compiled search keeps its own."""
        return hash_tables(self.pattern, self.q)[0]

    def __repr__(self):
        return f"{type(self).__name__}(pattern={self.pattern!r}, q={self.q})"


def build_profile(pattern: bytes, q: int) -> PatternProfile:
    """Build the ``kmp`` and ``dist`` tables for ``pattern`` at q-gram size
    ``q``.

    Each comes from one scan of the pattern: with the compiled engine,
    preprocessing is O(mq) time and O(m) memory, and no table has 2^16
    entries (the Python scan still fills a 16-bit ``hq`` on the way).
    """
    pat = bytes(pattern)
    if engine is None:  # the Python scan runs through a dense hq
        dist = hash_tables(pat, q)[1]
    else:  # the compiled one through the engine's own table
        check_q(q, len(pat))
        dist = array("I", [0] + [1] * len(pat))  # as in hash_tables
        engine.hash_tables(pat, q, 16, None, dist)
    return PatternProfile(pattern=pat, q=q, kmp=kmp_shift_table(pat),
                          dist=dist)
