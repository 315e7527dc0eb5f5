"""Independent brute-force oracles used to derive and check expected values.

Everything here evaluates the defining formulas directly (big-int powers,
explicit quantifier scans) with no shared code or shortcuts from the
package, so a bug in the implementation cannot hide in its own oracle.
:func:`peak_bytes` measures memory the same way, with tracemalloc alone.
"""

import tracemalloc

HASH16_SPACE = 1 << 16


def hash16_oracle(window: bytes, q: int) -> int:
    assert len(window) == q
    return sum(4 ** (q - 1 - t) * window[t] for t in range(q)) % HASH16_SPACE


def hash8_oracle(window: bytes, q: int) -> int:
    assert len(window) == q
    return sum(2 ** (q - 1 - t) * window[t] for t in range(q)) % 256


def strong_border_oracle(pattern: bytes, j: int) -> int:
    """Entry j of the strong border table by direct quantifier evaluation.

    1-based: for j <= m it is the largest k in [0, j) with
    P[1:k] == P[j-k:j-1] and P[k+1] != P[j] (-1 if none); for j == m+1 it
    is the longest proper border of the whole pattern.
    """
    m = len(pattern)
    assert 1 <= j <= m + 1
    if j == m + 1:
        return max((k for k in range(m)
                    if pattern[:k] == pattern[m - k:]), default=0)
    best = -1
    for k in range(j):
        # pattern[:k] vs the k bytes ending at position j-1 (1-based)
        if pattern[:k] == pattern[j - 1 - k:j - 1] and pattern[k] != pattern[j - 1]:
            best = k
    return best


def hq_shift_oracle(pattern: bytes, q: int, hash_value: int,
                    hash_oracle=hash16_oracle) -> int:
    """m - (rightmost j in [q, m] whose q-gram hashes to hash_value),
    with q-1 standing in when there is no such j.  ``hash_oracle`` picks
    the fingerprint (16-bit by default)."""
    m = len(pattern)
    best = q - 1
    for j in range(q, m + 1):
        if hash_oracle(pattern[j - q:j], q) == hash_value:
            best = j
    return m - best


def dist_oracle(pattern: bytes, q: int, j: int,
                hash_oracle=hash16_oracle) -> int:
    """Smallest k >= 1 with hash(gram ending at j-k) == hash(gram ending
    at j), capped at j-q+1; defined as 1 below q.  ``hash_oracle`` picks
    the fingerprint (16-bit by default)."""
    if j < q:
        return 1
    target = hash_oracle(pattern[j - q:j], q)
    for k in range(1, j - q + 1):
        if hash_oracle(pattern[j - q - k:j - k], q) == target:
            return k
    return j - q + 1


def occurrences_oracle(text: bytes, pattern: bytes) -> list[int]:
    """1-based overlapping occurrence positions, quadratic and obvious."""
    m = len(pattern)
    out = []
    for i in range(len(text) - m + 1):
        if all(text[i + t] == pattern[t] for t in range(m)):
            out.append(i + 1)
    return out


def peak_bytes(build, *args) -> int:
    """Peak bytes that tracemalloc saw allocated while ``build(*args)`` ran."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
