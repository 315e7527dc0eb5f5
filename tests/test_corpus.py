import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from qgramsearch import ConfigurationError, CorpusSpec, GenerationError, \
    alphabet_bytes, fibonacci_string, load_text, naive_search, \
    random_text_with_occurrences, sample_patterns


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
