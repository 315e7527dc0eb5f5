"""Pattern preprocessing: the Python builders of the shift tables.

Tables are 1-based: the position-indexed ones carry a padding slot at index
0, so entry j lives at index j.  Each is an ``array('I')``, one contiguous
buffer of unsigned 32-bit entries; entries are at most m + 1, and a value
out of range raises ``OverflowError`` instead of wrapping.  Compare a table
with a list by value, through ``list(table)``.  ``kmp`` and ``dist`` are
allocated as zeros, in one step with no list behind them, and their scans
write every entry after the padding, ``dist``'s inert ones below q
included.  Only ``hq`` is prefilled, because its scan reads the prefill.

:func:`kmp_shift_table` builds ``kmp``, and :func:`hash_tables` is the one
builder of ``hq`` and ``dist`` (16-bit for :class:`PatternProfile`, 8-bit
for ``hashq_search``):

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: entry c is how far the window may jump so that its suffix q-gram
  lines up with the rightmost pattern q-gram hashing to c;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).

Both come from one ascending scan of the pattern's q-gram hashes over an
``hq`` prefilled with m - q + 1, a value no real shift takes: an entry
still holding it marks a hash not seen yet, so the scan needs no map of
last positions and touches O(m) entries.

These builders serve the traced and Python searches and
:class:`PatternProfile`'s properties, and are the reference for the
compiled engine (see :mod:`qgramsearch.native`), whose searches build the
same tables from the pattern on every call.  So :func:`build_profile` only
validates: a profile holds the pattern and q, and builds no table.
"""

from __future__ import annotations

from array import array

from .errors import ConfigurationError, _FrozenRecord
from .hashing import check_q, fingerprint, qgram_hashes

# the one-entry seed of every table that its scan writes in full
_ZERO = array("I", [0])


def kmp_shift_table(pattern: bytes) -> array:
    """Shift amounts j - strong_border(j) - 1, entries 1..m+1, as an
    ``array('I')`` (index 0 is padding).

    Entry j is how far the pattern slides after a mismatch at position j
    (entry m+1: after a full match).  Every entry is in [1, j].  The strong
    border of j <= m is the longest border k < j - 1 of P[1:j-1] with
    P[k+1] != P[j] (-1 if none); that of m+1 is P's longest border < m.
    One scan reads each strong border back from the shifts already filled.

    >>> list(kmp_shift_table(b"aa")[1:])
    [1, 2, 1]
    """
    pat = bytes(pattern)
    m = len(pat)
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    ks = _ZERO * (m + 2)
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
    dist = _ZERO * (m + 1)
    for j in range(1, q):
        dist[j] = 1  # inert entries: never above a real gap
    hs = qgram_hashes(pattern, q, bits)
    for j in range(q, m + 1):
        h = hs[j]
        # hq[h] is m - p for the last p < j with this hash, or the prefill
        # m - q + 1 (no real shift) when there is none, read as p = q - 1
        dist[j] = j - (m - hq[h])
        hq[h] = m - j
    return hq, dist


class PatternProfile(_FrozenRecord):
    """A validated pattern and its q-gram size, as the distance-shift
    matchers take them.

    Its shift tables are read-only properties, built afresh on each read by
    the Python builders; the compiled searches build their own.
    """

    def __init__(self, pattern: bytes, q: int):
        fields = self.__dict__  # item writes: cheaper than update(**kwargs)
        fields["pattern"] = pattern
        fields["q"] = q

    @property
    def kmp(self) -> array:
        """:func:`kmp_shift_table` of the pattern, entries 1..m+1: O(m)."""
        return kmp_shift_table(self.pattern)

    @property
    def dist(self) -> array:
        """The 16-bit ``dist`` table, entries 1..m, by :func:`hash_tables`:
        O(2^16 + mq)."""
        return hash_tables(self.pattern, self.q)[1]

    @property
    def hq(self) -> array:
        """The 16-bit ``hq`` table, one entry per hash, by
        :func:`hash_tables`: O(2^16 + mq)."""
        return hash_tables(self.pattern, self.q)[0]


def build_profile(pattern: bytes, q: int) -> PatternProfile:
    """The profile of ``pattern`` at q-gram size ``q``, once
    :func:`~qgramsearch.hashing.check_q` accepts them: O(m), no table."""
    pat = bytes(pattern)
    check_q(q, len(pat))
    return PatternProfile(pat, q)
