"""q-gram hash functions.

Two fingerprints of a q-byte window x = x[1..q] are used:

* a 16-bit value  (4^(q-1)*x[1] + 4^(q-2)*x[2] + ... + x[q]) mod 2^16
* an 8-bit value  (2^(q-1)*x[1] + 2^(q-2)*x[2] + ... + x[q]) mod 2^8

The 16-bit hash feeds the distance-based shift tables and the 8-bit hash
the hash-shift baseline; ``bits`` = 16 or 8 picks one (:func:`fingerprint`).
Both admit a constant-time rolling update when the window slides one byte
to the right: :func:`qgram_hashes`, which the Python table builder runs
(the compiled one hashes each q-gram afresh).  This module is the one
definition of both polynomials and of the q-gram input contract:
:func:`check_q` is the one check of a (pattern length, q) pair, and
:func:`clamp_q` the one clamp of a requested q to the q that runs.  The
matchers' text-side loops inline the same arithmetic for speed, with the
base and mask that :func:`fingerprint` gives them.

q is capped at 8: for q >= 9 the weight 4^(q-1) of the outgoing byte is
0 mod 2^16 and the rolling update could no longer remove it.
"""

from __future__ import annotations

from .errors import ConfigurationError

MOD16 = 1 << 16
MOD8 = 1 << 8
MAX_Q = 8


def check_q(q: int, m: int | None = None) -> None:
    """Raise :class:`ConfigurationError` unless the pattern length ``m`` is
    positive, q is an int and 1 <= q <= min(m, MAX_Q), checked in that
    order; without ``m`` (a lone window) only the q checks are made."""
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    if not isinstance(q, int):
        raise ConfigurationError(f"q must be an int, got {q!r}")
    if not 1 <= q <= MAX_Q:
        raise ConfigurationError(f"q must be in [1, {MAX_Q}], got {q}")
    if m is not None and q > m:
        raise ConfigurationError(f"q = {q} exceeds pattern length m = {m}")


def clamp_q(q: int, m: int) -> int:
    """The q that a q-taking matcher runs with on a length-m pattern."""
    return min(q, m, MAX_Q)


def fingerprint(bits: int) -> tuple[int, int]:
    """``(base, mask)``: (4, 2^16 - 1) for ``bits`` 16, (2, 2^8 - 1) for 8;
    any other ``bits`` raises :class:`ConfigurationError`."""
    if bits not in (16, 8):
        raise ConfigurationError(f"bits must be 8 or 16, got {bits}")
    return (4, MOD16 - 1) if bits == 16 else (2, MOD8 - 1)


def _hash_window(window: bytes, q: int, bits: int) -> int:
    """The ``bits``-bit q-gram polynomial, evaluated afresh on a window."""
    check_q(q)
    base, mask = fingerprint(bits)
    if len(window) != q:
        raise ConfigurationError(f"window length {len(window)} != q = {q}")
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
    return _hash_window(window, q, 16)


def qgram_hash8(window: bytes, q: int) -> int:
    """8-bit hash of a q-byte window (base 2 instead of base 4).

    >>> qgram_hash8(b"ab", 2)
    36
    """
    return _hash_window(window, q, 8)


def qgram_hashes(seq: bytes, q: int, bits: int = 16) -> list[int]:
    """Hash of every q-gram of ``seq`` in one rolling pass, O(len(seq)).

    Entry j (1-based, q <= j <= len(seq)) hashes seq[j-q:j]; entries below q
    are padding.  ``bits`` picks the fingerprint.  Each step removes the
    outgoing byte at weight base^(q-1) and shifts in the next:

    >>> qgram_hashes(b"abaa", 3)[3:]   # "aba", then rolled to "baa"
    [2041, 2053]
    """
    check_q(q)  # before q slices seq
    base, mask = fingerprint(bits)
    h = _hash_window(seq[:q], q, bits)
    weight = pow(base, q - 1, mask + 1)
    hs = [0] * q + [h]
    for out_byte, in_byte in zip(seq, seq[q:]):
        h = ((h - weight * out_byte) * base + in_byte) & mask
        hs.append(h)
    return hs
