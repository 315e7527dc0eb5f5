"""Corpus generation.

Texts are bytes.  Alphabets of size sigma map to contiguous byte ranges:
from ``a`` when sigma <= 26, otherwise from byte 32 (printable ASCII,
sigma up to 95).  All randomness comes from ``random.Random`` (Mersenne
Twister) seeded explicitly, so every corpus is reproducible from its spec.
"""

from __future__ import annotations

import random
import sys
from math import floor

from .errors import ConfigurationError, GenerationError, _FrozenRecord, \
    _require_ints

MAX_FIB_ORDER = 40
MAX_SIGMA = 95
SCRUB_BUDGET_FACTOR = 100
PLACEMENT_ATTEMPTS = 100
DRAW_CHUNK = 1 << 12  # draws per getrandbits call in _draw


def alphabet_bytes(sigma: int) -> bytes:
    _require_ints("sigma", sigma)
    if not 2 <= sigma <= MAX_SIGMA:
        raise ConfigurationError(f"sigma must be in [2, {MAX_SIGMA}], got {sigma}")
    start = ord("a") if sigma <= 26 else 32
    return bytes(range(start, start + sigma))


def _check_fib_order(k: int) -> None:
    _require_ints("k", k)
    if not 1 <= k <= MAX_FIB_ORDER:
        raise ConfigurationError(f"k must be in [1, {MAX_FIB_ORDER}], got {k}")


def fibonacci_string(k: int) -> bytes:
    """k-th Fibonacci string: F1 = "b", F2 = "a", Fk = F(k-1) + F(k-2).

    >>> fibonacci_string(5)
    b'abaab'
    """
    _check_fib_order(k)
    if k == 1:
        return b"b"
    prev, cur = b"b", b"a"
    for _ in range(k - 2):
        prev, cur = cur, cur + prev
    return cur


class CorpusSpec(_FrozenRecord):
    """Parameters of one generated random text with embedded occurrences."""

    def __init__(self, n: int, sigma: int, m: int, occ: int, seed: int):
        _require_ints("n", n, least=1)
        alphabet_bytes(sigma)  # the one check of sigma
        _require_ints("m", m, least=1)
        _require_ints("occ", occ, least=0)
        _require_ints("seed", seed)
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


def _draw(rng: random.Random, alphabet: bytes, k: int) -> bytes:
    """``bytes(rng.choices(alphabet, k=k))``, and ``rng`` left as it leaves it.

    ``random()`` is (a*2**26 + b) / 2**53, where a = w0 >> 5 and b = w1 >> 6
    come from two consecutive Mersenne Twister words, and ``choices`` picks
    ``alphabet[floor(random() * sigma)]``.  ``getrandbits(64*c)`` returns the
    next 2c words with word i at bit 32*i, so 64-bit lane i of that int holds
    draw i.  With each lane masked to a*32 and the whole int multiplied by
    sigma (a*32*sigma < 2**39, so no lane carries into the next), byte 4 of
    lane i is floor(a*sigma / 2**27).  That is the index ``choices`` takes
    unless b or the float product carries it to the next one, which needs
    the lane's bits 16..31 all set (about 2**-16 of draws); those draws are
    recomputed with ``random()``'s own expression.
    """
    sigma = len(alphabet)
    table = alphabet.ljust(256, b"\0")
    parts = []
    # bits 5..31 of each lane; a shorter last chunk uses its low lanes
    mask = int.from_bytes(b"\xe0\xff\xff\xff\0\0\0\0" * min(k, DRAW_CHUNK),
                          "little")
    for start in range(0, k, DRAW_CHUNK):
        c = min(DRAW_CHUNK, k - start)
        words = rng.getrandbits(64 * c)
        lanes = ((words & mask) * sigma).to_bytes(8 * c, "little")
        index = lanes[4::8]
        pos = lanes.find(b"\xff\xff")
        if pos != -1:
            index = bytearray(index)
            while pos != -1:
                if pos % 8 == 2:
                    lane = words >> (64 * (pos // 8))
                    a = (lane & 0xFFFFFFFF) >> 5
                    b = (lane >> 32 & 0xFFFFFFFF) >> 6
                    index[pos // 8] = floor(
                        (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
                        * sigma)
                pos = lanes.find(b"\xff\xff", pos + 1)
        parts.append(index.translate(table))
    return b"".join(parts)


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
    pattern = _draw(rng, alphabet, spec.m)
    text = bytearray(_draw(rng, alphabet, spec.n))
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
    t = text if type(text) is bytes else bytes(text)
    _require_ints("m", m)
    if not 1 <= m <= len(t):
        raise ConfigurationError(
            f"m must be in [1, len(text) = {len(t)}], got {m}")
    _require_ints("count", count, least=1)
    _require_ints("seed", seed)
    rng = random.Random(seed)
    last = len(t) - m
    return [t[s:s + m] for s in (rng.randint(0, last) for _ in range(count))]


# --- ``qgramsearch gen``: cli.build_parser imports its arguments from here

def _cmd_gen_fib(args) -> int:
    data = fibonacci_string(args.k)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(data)} bytes to {args.out}", file=sys.stderr)
    return 0


def _cmd_gen_occ(args) -> int:
    corpus = random_text_with_occurrences(
        CorpusSpec(n=args.n, sigma=args.sigma, m=args.m, occ=args.occ,
                   seed=args.seed))
    with open(args.out, "wb") as fh:
        fh.write(corpus.text)
    with open(args.pattern_out, "wb") as fh:
        fh.write(corpus.pattern)
    print(f"wrote {len(corpus.text)} bytes to {args.out}; pattern "
          f"({len(corpus.pattern)} bytes, {corpus.occ} occurrences) to "
          f"{args.pattern_out}", file=sys.stderr)
    return 0


def _gen_arguments(p_gen) -> None:
    """Add the ``gen`` subcommand's arguments to its parser ``p_gen``."""
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_fib = gen_sub.add_parser("fib", help="Fibonacci string")
    p_fib.add_argument("--k", type=int, required=True, help="order, 1..40")
    p_fib.add_argument("--out", required=True)
    p_fib.set_defaults(func=_cmd_gen_fib)
    p_occ = gen_sub.add_parser(
        "occ", help="random text with an exact number of pattern occurrences")
    p_occ.add_argument("--n", type=int, required=True)
    p_occ.add_argument("--sigma", type=int, required=True)
    p_occ.add_argument("--m", type=int, required=True)
    p_occ.add_argument("--occ", type=int, required=True)
    p_occ.add_argument("--seed", type=int, default=0)
    p_occ.add_argument("--out", required=True)
    p_occ.add_argument("--pattern-out", required=True)
    p_occ.set_defaults(func=_cmd_gen_occ)
