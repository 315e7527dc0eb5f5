"""q-gram hash functions.

Two fingerprints of a q-byte window x = x[1..q] are used:

* a 16-bit value  (4^(q-1)*x[1] + 4^(q-2)*x[2] + ... + x[q]) mod 2^16
* an 8-bit value  (2^(q-1)*x[1] + 2^(q-2)*x[2] + ... + x[q]) mod 2^8

The 16-bit hash feeds the distance-based shift tables and the 8-bit hash
the hash-shift baseline.  Both admit a constant-time rolling update when the
window slides one byte to the right; :func:`qgram_hashes` is the one rolling
pass, used for every pattern.  This module is the one definition of both
polynomials and of the valid q range; the matchers' text-side loops inline
the same arithmetic for speed.

q is capped at 8: for q >= 9 the weight 4^(q-1) of the outgoing byte is
0 mod 2^16 and the rolling update could no longer remove it.
"""

from __future__ import annotations

from .errors import ConfigurationError

MOD16 = 1 << 16
MOD8 = 1 << 8
MAX_Q = 8

_MASK16 = MOD16 - 1
_MASK8 = MOD8 - 1


def check_q(q: int) -> None:
    """Raise :class:`ConfigurationError` unless 1 <= q <= MAX_Q."""
    if not 1 <= q <= MAX_Q:
        raise ConfigurationError(f"q must be in [1, {MAX_Q}], got {q}")


def _hash_window(window: bytes, q: int, base: int, mask: int) -> int:
    """The q-gram polynomial, evaluated afresh on one q-byte window."""
    check_q(q)
    if len(window) != q:
        raise ValueError(f"window length {len(window)} != q = {q}")
    h = 0
    for b in window:
        h = h * base + b
    # intermediate values stay below 4^8 * 256 < 2^24, well inside 32 bits
    return h & mask


def qgram_hash16(window: bytes, q: int) -> int:
    """16-bit hash of a q-byte window.

    >>> qgram_hash16(b"aba", 3)
    2041
    """
    return _hash_window(window, q, 4, _MASK16)


def qgram_hash8(window: bytes, q: int) -> int:
    """8-bit hash of a q-byte window (base 2 instead of base 4).

    >>> qgram_hash8(b"ab", 2)
    36
    """
    return _hash_window(window, q, 2, _MASK8)


def qgram_hashes(seq: bytes, q: int, base: int = 4, mask: int = _MASK16) -> list[int]:
    """Hash of every q-gram of ``seq`` in one rolling pass, O(len(seq)).

    Entry j (1-based, q <= j <= len(seq)) hashes seq[j-q:j]; entries below q
    are padding.  ``base``/``mask`` select the fingerprint: 4 and 2^16 - 1
    for the 16-bit hash, 2 and 2^8 - 1 for the 8-bit one.  Each step
    removes the outgoing byte at weight base^(q-1) and shifts in the next:

    >>> qgram_hashes(b"abaa", 3)[3:]   # "aba", then rolled to "baa"
    [2041, 2053]
    """
    h = _hash_window(seq[:q], q, base, mask)
    weight = pow(base, q - 1, mask + 1)
    hs = [0] * q + [h]
    for out_byte, in_byte in zip(seq, seq[q:]):
        h = ((h - weight * out_byte) * base + in_byte) & mask
        hs.append(h)
    return hs
