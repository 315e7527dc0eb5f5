"""Corpus generation and loading.

Texts are bytes.  Alphabets of size sigma map to contiguous byte ranges:
from ``a`` when sigma <= 26, otherwise from byte 32 (printable ASCII,
sigma up to 95).  All randomness comes from ``random.Random`` (Mersenne
Twister) seeded explicitly, so every corpus is reproducible from its spec.
"""

from __future__ import annotations

import random

from .errors import ConfigurationError, GenerationError, _FrozenRecord

MAX_FIB_ORDER = 40
MAX_SIGMA = 95
SCRUB_BUDGET_FACTOR = 100
PLACEMENT_ATTEMPTS = 100


def alphabet_bytes(sigma: int) -> bytes:
    if not 2 <= sigma <= MAX_SIGMA:
        raise ConfigurationError(f"sigma must be in [2, {MAX_SIGMA}], got {sigma}")
    start = ord("a") if sigma <= 26 else 32
    return bytes(range(start, start + sigma))


def fibonacci_string(k: int) -> bytes:
    """k-th Fibonacci string: F1 = "b", F2 = "a", Fk = F(k-1) + F(k-2).

    >>> fibonacci_string(5)
    b'abaab'
    """
    if not 1 <= k <= MAX_FIB_ORDER:
        raise ConfigurationError(f"k must be in [1, {MAX_FIB_ORDER}], got {k}")
    if k == 1:
        return b"b"
    prev, cur = b"b", b"a"
    for _ in range(k - 2):
        prev, cur = cur, cur + prev
    return cur


class CorpusSpec(_FrozenRecord):
    """Parameters of one generated random text with embedded occurrences."""

    def __init__(self, n: int, sigma: int, m: int, occ: int, seed: int):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        alphabet_bytes(sigma)  # the one check of sigma
        if m < 1:
            raise ConfigurationError(f"m must be >= 1, got {m}")
        if occ < 0:
            raise ConfigurationError(f"occ must be >= 0, got {occ}")
        if occ * m > n:
            raise ConfigurationError(f"occ*m = {occ * m} exceeds n = {n}")
        self.__dict__.update(n=n, sigma=sigma, m=m, occ=occ, seed=seed)


class GeneratedCorpus(_FrozenRecord):
    def __init__(self, text: bytes, pattern: bytes, occ: int):
        self.__dict__.update(text=text, pattern=pattern, occ=occ)


def _count_occurrences(text, pattern) -> int:
    # overlapping count, same semantics as the matchers
    count = 0
    pos = text.find(pattern)
    while pos != -1:
        count += 1
        pos = text.find(pattern, pos + 1)
    return count


def _scrub(text: bytearray, pattern: bytes, alphabet: bytes,
           rng: random.Random, budget: int) -> None:
    """Re-randomize bytes inside the leftmost occurrence until none remain."""
    m = len(pattern)
    changes = 0
    pos = text.find(pattern)
    while pos != -1:
        if changes >= budget:
            raise GenerationError(
                f"could not scrub pattern after {budget} character changes")
        text[pos + rng.randrange(m)] = rng.choice(alphabet)
        changes += 1
        # a change at offset >= pos can only create occurrences from pos-m+1 on
        pos = text.find(pattern, max(0, pos - m + 1))


def _place(base: bytes, pattern: bytes, occ: int, rng: random.Random) -> bytes:
    """Copy the pattern to occ uniformly chosen non-overlapping starts.

    Sampling occ sorted values z_1 < ... < z_occ from a shrunk range and
    spreading them by (i-1)*(m-1) enumerates exactly the non-overlapping
    start tuples, so every admissible placement is equally likely.
    Adjacent copies are allowed.
    """
    n, m = len(base), len(pattern)
    span = n - occ * m + occ
    zs = sorted(rng.sample(range(span), occ))
    out = bytearray(base)
    for idx, z in enumerate(zs):
        s = z + idx * (m - 1)
        out[s:s + m] = pattern
    return bytes(out)


def random_text_with_occurrences(spec: CorpusSpec) -> GeneratedCorpus:
    """Random text containing the generated pattern exactly ``spec.occ`` times.

    The text is drawn uniformly, scrubbed until the pattern is absent, and
    the pattern is then embedded at non-overlapping random starts.  Because
    junctions with surrounding bytes can create accidental extra
    occurrences, the placement is verified and redrawn (fresh positions on
    the same scrubbed base) up to a fixed number of attempts before failing.
    """
    rng = random.Random(spec.seed)
    alphabet = alphabet_bytes(spec.sigma)
    pattern = bytes(rng.choices(alphabet, k=spec.m))
    text = bytearray(rng.choices(alphabet, k=spec.n))
    _scrub(text, pattern, alphabet, rng, SCRUB_BUDGET_FACTOR * spec.n)
    base = bytes(text)
    if spec.occ == 0:
        return GeneratedCorpus(base, pattern, 0)
    for _ in range(PLACEMENT_ATTEMPTS):
        candidate = _place(base, pattern, spec.occ, rng)
        if _count_occurrences(candidate, pattern) == spec.occ:
            return GeneratedCorpus(candidate, pattern, spec.occ)
    raise GenerationError(
        f"embedding kept creating stray occurrences after "
        f"{PLACEMENT_ATTEMPTS} placements (spec: {spec})")


def sample_patterns(text: bytes, m: int, count: int, seed: int) -> list[bytes]:
    """``count`` length-m windows of ``text`` at uniform random starts."""
    t = bytes(text)
    if not 1 <= m <= len(t):
        raise ConfigurationError(
            f"m must be in [1, len(text) = {len(t)}], got {m}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    rng = random.Random(seed)
    last = len(t) - m
    return [t[s:s + m] for s in (rng.randint(0, last) for _ in range(count))]


def load_text(path, *, strip_newlines: bool = False) -> bytes:
    """Read a file as raw bytes, optionally dropping line-feed bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.replace(b"\n", b"") if strip_newlines else data
