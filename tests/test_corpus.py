import hashlib
import os
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from qgramsearch import ConfigurationError, CorpusSpec, GenerationError, \
    alphabet_bytes, fibonacci_string, load_text, naive_search, \
    random_text_with_occurrences, sample_patterns
from qgramsearch.corpus import DRAW_CHUNK, _draw


# --- fibonacci ---

def test_fibonacci_base_cases():
    assert fibonacci_string(1) == b"b"
    assert fibonacci_string(2) == b"a"
    assert fibonacci_string(3) == b"ab"
    assert fibonacci_string(5) == b"abaab"


def test_fibonacci_recurrence_and_lengths():
    lengths = [len(fibonacci_string(k)) for k in range(1, 16)]
    for k in range(2, 15):
        assert lengths[k] == lengths[k - 1] + lengths[k - 2]
    assert fibonacci_string(10) == fibonacci_string(9) + fibonacci_string(8)


@pytest.mark.parametrize("k", [0, 41, -3])
def test_fibonacci_order_bounds(k):
    with pytest.raises(ConfigurationError):
        fibonacci_string(k)


# --- alphabets ---

def test_alphabet_ranges():
    assert alphabet_bytes(2) == b"ab"
    assert alphabet_bytes(26) == bytes(range(97, 123))
    assert alphabet_bytes(27)[0] == 32
    assert len(alphabet_bytes(95)) == 95
    with pytest.raises(ConfigurationError):
        alphabet_bytes(1)
    with pytest.raises(ConfigurationError):
        alphabet_bytes(96)


# --- random text with embedded occurrences ---

def test_exact_occurrence_counts_small():
    for occ in (0, 1, 5, 40):
        spec = CorpusSpec(n=2000, sigma=4, m=8, occ=occ, seed=11)
        corpus = random_text_with_occurrences(spec)
        assert len(corpus.text) == 2000
        assert len(corpus.pattern) == 8
        assert len(naive_search(corpus.text, corpus.pattern)) == occ


def test_generation_is_deterministic():
    spec = CorpusSpec(n=500, sigma=26, m=6, occ=12, seed=99)
    a = random_text_with_occurrences(spec)
    b = random_text_with_occurrences(spec)
    assert a.text == b.text and a.pattern == b.pattern
    c = random_text_with_occurrences(CorpusSpec(n=500, sigma=26, m=6, occ=12,
                                                seed=100))
    assert c.text != a.text


def test_dense_embedding_allows_adjacency():
    # occ*m == n: every placement is forced, copies sit side by side
    spec = CorpusSpec(n=40, sigma=4, m=4, occ=10, seed=5)
    corpus = random_text_with_occurrences(spec)
    assert len(naive_search(corpus.text, corpus.pattern)) == 10


def test_large_sigma_uses_printable_range():
    corpus = random_text_with_occurrences(
        CorpusSpec(n=300, sigma=95, m=5, occ=3, seed=2))
    assert all(32 <= b < 127 for b in corpus.text)
    assert len(naive_search(corpus.text, corpus.pattern)) == 3


def test_spec_validation():
    with pytest.raises(ConfigurationError, match="n must be >= 1, got 0"):
        CorpusSpec(n=0, sigma=4, m=1, occ=0, seed=0)
    with pytest.raises(ConfigurationError):
        CorpusSpec(n=10, sigma=4, m=4, occ=3, seed=0)  # occ*m > n
    with pytest.raises(ConfigurationError):
        CorpusSpec(n=10, sigma=1, m=2, occ=0, seed=0)
    with pytest.raises(ConfigurationError):
        CorpusSpec(n=10, sigma=4, m=0, occ=0, seed=0)
    with pytest.raises(ConfigurationError):
        CorpusSpec(n=10, sigma=4, m=2, occ=-1, seed=0)


@given(st.integers(0, 2 ** 32), st.sampled_from((2, 4, 26, 95)),
       st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_occurrence_count_postcondition(seed, sigma, occ):
    # a highly periodic pattern (think all-a over sigma=2) may legally fail
    # loudly when every placement touches a stray; what must never happen
    # is a silent wrong count
    m = 6 if sigma == 2 else 4
    spec = CorpusSpec(n=400, sigma=sigma, m=m, occ=occ, seed=seed)
    try:
        corpus = random_text_with_occurrences(spec)
    except GenerationError:
        assume(False)
        return
    assert len(naive_search(corpus.text, corpus.pattern)) == occ


def test_occ_zero_with_pattern_longer_than_text():
    corpus = random_text_with_occurrences(
        CorpusSpec(n=5, sigma=4, m=9, occ=0, seed=1))
    assert naive_search(corpus.text, corpus.pattern) == []



# sha256 of text and pattern, taken when both were still drawn by rng.choices
GOLDEN = [
    ((1000, 2, 6, 0, 1),
     "855199aa9340bfedc9ffbda3961c1bc4bd97fc6020ebb70d9f645aa9ba7add98",
     "f434883d29e0e2b2e689d7f1b2ea106982dd1cfb611e56ec10037220b0636705"),
    ((1000, 2, 8, 5, 2),
     "fdfe0e6596763f2b8bd15a5d64ce3a0237a7f43e01f94842dd77fa21ab55764a",
     "02f8f674f5ff4d30f9efeea2348370f36d4d4397f6d4ff0e24d32cf24c8646ac"),
    ((5000, 4, 8, 0, 3),
     "052a3c18c724a9b9db8b33ba6a1bc49707b6cb82e881140ffb388b4116feace8",
     "63afee578de352cadd29a4cfd276ab43746d0534348c611a6806dea9d226790f"),
    ((70_001, 4, 8, 64, 4),
     "1b1c233dd56c8d905609364e5f1f1267e2b062aab955db53c0086c5192b75003",
     "2b5ed355b0eeba6e3386e258d028d89138c78eb61b02e714a97109c113b80f4b"),
    ((3000, 26, 5, 7, 5),
     "388402f1c74b05b62ff013c1297b25f690bac1145dc15f6d7b10f141c6196d66",
     "7c596913cfcf5c2886561fe7e36447bfa93b979fae85cf9b2f9b13f1b0fd43f4"),
    ((3000, 27, 4, 0, 6),
     "e63768c8f8f9011cdec5614ed955c3975f7865b0a8ffa54fb1a7f4d4bee0e669",
     "f688907e6cea937edf5991716496ebb7aec72a16b70e7524e969ea3ebb75617a"),
    ((70_001, 95, 16, 0, 7),
     "0ac3072f7068c136c96708225d2bd7d7c057788eab79e2d9c3adef7a4027ec69",
     "54546cee9b0f1bc18705dc56c85b622a9b27c8fbbf92804407f30272127a27f7"),
    ((4000, 95, 16, 9, 8),
     "7938ced16d7b0fda3793135c2cb6c9f58c5dd2970b3cd9b2779d97a16d93f3e5",
     "0916ff404467468039a0bb97b9621a58c79c078db942158dd448876e50d64fd1"),
]


@pytest.mark.parametrize("spec, text_sha, pattern_sha", GOLDEN,
                         ids=[str(g[0]) for g in GOLDEN])
def test_generated_bytes_are_pinned(spec, text_sha, pattern_sha):
    n, sigma, m, occ, seed = spec
    corpus = random_text_with_occurrences(CorpusSpec(n, sigma, m, occ, seed))
    assert hashlib.sha256(corpus.text).hexdigest() == text_sha
    assert hashlib.sha256(corpus.pattern).hexdigest() == pattern_sha


def test_generator_peak_memory_is_bounded():
    spec = CorpusSpec(n=2_000_000, sigma=4, m=8, occ=1024, seed=3)
    tracemalloc.start()
    try:
        random_text_with_occurrences(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * spec.n, peak / spec.n


# --- the bulk draw: bytes(rng.choices(alphabet, k=k)) in chunks ---

def test_draw_equals_choices_for_every_sigma():
    ks = (1, 2, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 7)
    for sigma in range(2, 96):
        alphabet = alphabet_bytes(sigma)
        for seed in (sigma, 1000 + sigma, 2 ** 40 + sigma):
            rng, twin = random.Random(seed), random.Random(seed)
            for k in ks:
                assert _draw(rng, alphabet, k) == bytes(
                    twin.choices(alphabet, k=k)), (sigma, seed, k)
                assert rng.getstate() == twin.getstate(), (sigma, seed, k)


class WordRandom(random.Random):
    """Serves chosen 32-bit words, in order, to random() and getrandbits()."""

    def __init__(self, words):
        super().__init__(0)
        self.words, self.used = words, 0

    def _take(self, count):
        self.used += count
        return self.words[self.used - count:self.used]

    def random(self):
        # CPython's random(): 27 high bits of one word, 26 of the next
        w0, w1 = self._take(2)
        return ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 2 ** 53)

    def getrandbits(self, k):
        assert k % 32 == 0, k
        return int.from_bytes(b"".join(
            w.to_bytes(4, "little") for w in self._take(k // 32)), "little")


def boundary_words(sigma):
    """Draws on each side of every point where choices' index steps up."""
    words = []
    for j in range(1, sigma + 1):
        a0 = ((j << 27) - 1) // sigma  # largest a with a*sigma < j*2**27
        for a in (a0, a0 + 1):
            for b in (0, (1 << 26) - 1):
                for low0, low1 in ((0, 0), (31, 63)):  # bits random() drops
                    words += [(a << 5 | low0) & 0xFFFFFFFF, b << 6 | low1]
        exact = -(-(j << 53) // sigma)  # least 53-bit value at or past j/sigma
        for v in range(exact - 2, min(exact + 2, 1 << 53)):
            words += [(v >> 26) << 5, (v & ((1 << 26) - 1)) << 6]
    return words


@pytest.mark.parametrize("sigma", [3, 95])
def test_draw_equals_choices_at_every_index_boundary(sigma):
    alphabet = alphabet_bytes(sigma)
    words = boundary_words(sigma)
    rng, twin = WordRandom(words), WordRandom(words)
    drawn = _draw(rng, alphabet, len(words) // 2)
    assert drawn == bytes(twin.choices(alphabet, k=len(words) // 2))
    assert rng.used == twin.used == len(words)
    assert set(drawn) == set(alphabet)

# --- sampling ---

def test_sample_patterns_whole_text():
    assert sample_patterns(b"abaab", 5, 1, 0) == [b"abaab"]


def test_sample_patterns_contained_and_deterministic():
    text = fibonacci_string(10)
    pats = sample_patterns(text, 4, 3, 7)
    assert len(pats) == 3
    assert all(len(p) == 4 and p in text for p in pats)
    assert pats == sample_patterns(text, 4, 3, 7)


def test_sample_patterns_validation():
    with pytest.raises(ConfigurationError):
        sample_patterns(b"ab", 3, 1, 0)  # m > len(text)
    with pytest.raises(ConfigurationError):
        sample_patterns(b"ab", 1, 0, 0)
    with pytest.raises(ConfigurationError):
        sample_patterns(b"ab", 0, 1, 0)
    for args, message in (((2, 2.5, 0), "count must be an int, got 2.5"),
                          ((2.0, 2, 0), "m must be an int, got 2.0"),
                          ((2, 2, "7"), "seed must be an int, got '7'")):
        with pytest.raises(ConfigurationError) as info:
            sample_patterns(b"abcdef", *args)
        assert str(info.value) == message


def test_sample_patterns_takes_any_bytes_like_text():
    class Subclass(bytes):
        pass

    text = fibonacci_string(12)
    want = sample_patterns(text, 6, 20, 3)
    for form in (bytearray(text), memoryview(text), Subclass(text)):
        got = sample_patterns(form, 6, 20, 3)
        assert got == want and all(type(p) is bytes for p in got), type(form)


# --- files ---

def test_load_text_raw_and_stripped(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"ab\ncd\n")
    assert load_text(path) == b"ab\ncd\n"
    assert load_text(path, strip_newlines=True) == b"abcd"
    for bad in ("no", 1, None):
        with pytest.raises(ConfigurationError,
                           match="strip_newlines must be a bool"):
            load_text(path, strip_newlines=bad)


def test_load_text_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_text(tmp_path / "nope.bin")


def test_load_text_refuses_what_is_not_a_path(tmp_path):
    # open() would take an int as a file descriptor, read it and close it
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"ab")
    fd = os.open(path, os.O_RDONLY)
    try:
        for bad in (fd, 0, None, 2.5):
            with pytest.raises(ConfigurationError, match="path must be a str"):
                load_text(bad)
        assert os.read(fd, 2) == b"ab"  # still open, and unread
    finally:
        os.close(fd)
