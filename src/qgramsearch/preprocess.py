"""Pattern preprocessing: the Python builders of the shift tables.

``kmp`` and ``dist`` are lists indexed by 1-based pattern position, with a
padding slot at index 0, so entry j lives at index j.  :func:`kmp_shift_table`
builds ``kmp``, and :func:`hash_tables` is the one builder of ``hq`` and
``dist`` (16-bit for the distance-shift matchers, 8-bit for
``hashq_search``):

* ``kmp``: the strong border shifts of the prefix-based matcher;
* ``hq``: a dict from each pattern q-gram hash c to how far the window may
  jump so that its suffix q-gram lines up with the rightmost pattern q-gram
  hashing to c.  A hash no pattern q-gram has shifts by m - q + 1, so the
  searches read ``hq.get(h, m - q + 1)``;
* ``dist``: entry j is the smallest k >= 1 such that the q-gram ending at
  j-k hashes like the one ending at j (capped at j-q+1 when none does).

``hq`` and ``dist`` come from one ascending scan of the pattern's q-gram
hashes: O(mq) work and O(m) memory, whatever ``bits`` is.

These builders serve the traced and Python searches and are the reference
for the compiled engine (see :mod:`qgramsearch.native`), whose searches
build the same tables from the pattern on every call.  So a
:class:`PatternProfile` holds only its validated pattern and q.
"""

from __future__ import annotations

from .errors import ConfigurationError, _FrozenRecord
from .hashing import check_q, qgram_hashes


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
    """``(hq, dist)`` for ``pattern`` from one scan of its q-gram hashes,
    once :func:`~qgramsearch.hashing.check_q` accepts (pattern, q).

    ``bits`` (16 or 8) picks the fingerprint as in
    :func:`~qgramsearch.hashing.fingerprint`.  ``hq`` holds at most
    m - q + 1 hashes; read it as ``hq.get(h, m - q + 1)``.  Dist entry j in
    [q, m] is j - p for the largest p in [q, j) with the same hash as j, or
    j - q + 1 when there is none.
    """
    m = len(pattern)
    check_q(q, m)
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


class PatternProfile(_FrozenRecord):
    """A pattern and its q-gram size, as the distance-shift matchers take
    them, once :func:`~qgramsearch.hashing.check_q` accepts them.

    ``pattern`` is stored as ``bytes``.  A profile holds no table: the
    searches build theirs from the pattern.
    """

    def __init__(self, pattern: bytes, q: int):
        pattern = bytes(pattern)
        check_q(q, len(pattern))
        fields = self.__dict__  # item writes: cheaper than update(**kwargs)
        fields["pattern"] = pattern
        fields["q"] = q


def build_profile(pattern: bytes, q: int) -> PatternProfile:
    """The :class:`PatternProfile` of ``pattern`` at q-gram size ``q``: O(m),
    no table."""
    return PatternProfile(pattern, q)
