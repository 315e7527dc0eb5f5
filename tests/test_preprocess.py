import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from qgramsearch import MOD16, ConfigurationError, build_profile, \
    kmp_shift_table, qgram_hash16
from qgramsearch.hashing import qgram_hashes
from qgramsearch.preprocess import hash_tables
from oracles import dist_oracle, hash16_oracle, hash8_oracle, \
    hq_shift_oracle, strong_border_oracle

EXAMPLE = b"abaabbaaa"


def all_patterns(alphabet, max_len):
    stack = [b""]
    while stack:
        prefix = stack.pop()
        if prefix:
            yield prefix
        if len(prefix) < max_len:
            stack.extend(prefix + bytes([c]) for c in alphabet)


# --- strong border / shift table ---

def test_strong_border_small_patterns():
    # strong border j reads back from the shift table as j - 1 - kmp[j]
    for pat, borders in ((b"a", [-1, 0]), (b"aa", [-1, -1, 1])):
        ks = kmp_shift_table(pat)
        assert [j - 1 - ks[j] for j in range(1, len(pat) + 2)] == borders


def test_kmp_shift_small_patterns():
    assert list(kmp_shift_table(b"a")[1:]) == [1, 1]
    assert list(kmp_shift_table(b"aa")[1:]) == [1, 2, 1]


def test_kmp_shift_example_pattern():
    assert list(kmp_shift_table(EXAMPLE)[1:]) == [1, 1, 3, 2, 4, 3, 7, 6, 7, 8]


def _assert_kmp_shifts_match_oracle(patterns):
    # entry j is j - strong_border(j) - 1
    want = [[0] + [j - strong_border_oracle(pat, j) - 1
                   for j in range(1, len(pat) + 2)] for pat in patterns]
    assert [list(kmp_shift_table(pat)) for pat in patterns] == want


def test_strong_border_exhaustive_two_letters():
    _assert_kmp_shifts_match_oracle(list(all_patterns(b"ab", 12)))


def test_strong_border_random_longer_patterns():
    rng = random.Random(7)
    patterns = []
    for _ in range(1000):
        sigma = rng.choice((2, 3, 26))
        m = rng.randint(13, 48)
        patterns.append(bytes(rng.choices(range(97, 97 + sigma), k=m)))
    _assert_kmp_shifts_match_oracle(patterns)


@given(st.binary(min_size=1, max_size=40))
def test_kmp_shift_bounds_and_self_overlap(pat):
    shifts = kmp_shift_table(pat)
    m = len(pat)
    for j in range(1, m + 2):
        assert 1 <= shifts[j] <= j
    for j in range(2, m + 1):
        k = shifts[j]
        # sliding by k must re-align the matched prefix with itself
        # (an empty 1-based range clamps to the empty slice)
        assert pat[:max(0, j - k - 1)] == pat[k:j - 1], (pat, j)


# --- hash shift table ---

def test_hq_table_example_pattern():
    table = build_profile(EXAMPLE, 3).hq
    expected = {2041: 6, 2053: 1, 2038: 4, 2042: 3, 2057: 2, 2037: 0}
    for h, want in expected.items():
        assert table[h] == want
    assert all(table[h] == 7 for h in range(1 << 16) if h not in expected)


def test_hq_table_uniform_pattern():
    table = build_profile(b"aaa", 3).hq
    h = qgram_hash16(b"aaa", 3)
    assert table[h] == 0
    assert all(table[c] == 1 for c in range(1 << 16) if c != h)


def test_hq_table_two_gram_pattern():
    table = build_profile(b"abab", 2).hq
    assert table[qgram_hash16(b"ab", 2)] == 0  # rightmost "ab" ends at 4
    assert table[qgram_hash16(b"ba", 2)] == 1  # rightmost "ba" ends at 3
    others = set(range(1 << 16)) - {qgram_hash16(b"ab", 2), qgram_hash16(b"ba", 2)}
    assert all(table[c] == 3 for c in others)


def test_hq_table_full_direct_evaluation():
    rng = random.Random(41)
    for _ in range(3):
        m = rng.randint(4, 18)
        pat = bytes(rng.choices(b"abc", k=m))
        q = rng.randint(1, min(8, m))
        table = build_profile(pat, q).hq
        # big-int oracle hash of every pattern q-gram, computed once
        gram = [(j, hash16_oracle(pat[j - q:j], q)) for j in range(q, m + 1)]
        for c in range(1 << 16):
            best = q - 1
            for j, h in gram:
                if h == c:
                    best = j
            assert table[c] == m - best, (pat, q, c)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hq_table_spot_checks(data):
    pat = data.draw(st.binary(min_size=1, max_size=32))
    q = data.draw(st.integers(1, min(8, len(pat))))
    table = build_profile(pat, q).hq
    m = len(pat)
    for j in range(q, m + 1):
        h = qgram_hash16(pat[j - q:j], q)
        assert table[h] == hq_shift_oracle(pat, q, h)
        assert table[h] <= m - j  # at most the distance of this q-gram
    for c in data.draw(st.lists(st.integers(0, (1 << 16) - 1), max_size=8)):
        assert table[c] == hq_shift_oracle(pat, q, c)


# --- distance table ---

def test_dist_table_example_pattern():
    assert list(build_profile(EXAMPLE, 3).dist[1:]) == \
        [1, 1, 1, 2, 3, 4, 5, 4, 7]


def test_dist_table_small_patterns():
    assert list(build_profile(b"aaaa", 3).dist[1:]) == [1, 1, 1, 1]
    assert list(build_profile(b"abcabc", 3).dist[3:]) == [1, 2, 3, 3]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_dist_table_matches_direct_formula(data):
    pat = data.draw(st.binary(min_size=1, max_size=40))
    q = data.draw(st.integers(1, min(8, len(pat))))
    dist = build_profile(pat, q).dist
    for j in range(1, len(pat) + 1):
        assert dist[j] == dist_oracle(pat, q, j), (pat, q, j)
        assert 1 <= dist[j] <= max(1, j - q + 1)


# --- profile ---

def test_profile_matches_standalone_tables():
    prof = build_profile(EXAMPLE, 3)
    assert vars(prof) == {"pattern": EXAMPLE, "q": 3}  # tables built on read
    assert prof.kmp == kmp_shift_table(EXAMPLE)
    assert (prof.hq, prof.dist) == hash_tables(EXAMPLE, 3)
    again = build_profile(bytearray(EXAMPLE), 3)
    assert again == prof and hash(again) == hash(prof)
    assert {prof: 1}[again] == 1


@st.composite
def pattern_and_q(draw):
    q = draw(st.integers(1, 8))
    m = draw(st.integers(q, 80))
    return draw(st.binary(min_size=m, max_size=m)), q


def every_q(test):
    """``test`` with one explicit example per q, on a pattern with repeated
    q-grams."""
    for q in range(1, 9):
        test = example((EXAMPLE * 2, q), [])(test)
    return test


@every_q
@given(pattern_and_q(), st.lists(st.integers(0, (1 << 16) - 1), max_size=8))
@settings(max_examples=100, deadline=None)
def test_profile_tables_match_oracles(case, hashes):
    # all 256 byte values and patterns longer than the acceptance fuzz's 64
    pat, q = case
    m = len(pat)
    hashes = hashes + [hash16_oracle(pat[j - q:j], q)
                       for j in range(q, m + 1)]
    hq = [hq_shift_oracle(pat, q, h) for h in hashes]
    # every entry from index 0: the scans, not a prefill, write those below q
    dist = [0] + [dist_oracle(pat, q, j) for j in range(1, m + 1)]
    # the 8-bit tables of the hash-shift baseline, every entry
    hq8 = [hq_shift_oracle(pat, q, c, hash8_oracle) for c in range(256)]
    dist8 = [0] + [dist_oracle(pat, q, j, hash8_oracle)
                   for j in range(1, m + 1)]
    prof = build_profile(pat, q)
    got = ([prof.hq[h] for h in hashes], list(prof.dist),
           *map(list, hash_tables(pat, q, 8)))
    assert got == (hq, dist, hq8, dist8), (pat, q)


def _peak(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [1, 16, 200])
def test_profile_allocates_one_hash_table(m):
    # reading a profile's dist runs the Python scan: its 16-bit hq table is
    # the one allocation the size of the hash space, and the distance table
    # needs only O(m) scratch
    prof = build_profile(bytes(random.Random(m).choices(range(256), k=m)),
                         min(3, m))
    assert _peak(lambda: prof.dist) < \
        1.5 * sys.getsizeof(array("I", [0]) * MOD16)


@pytest.mark.parametrize("m", [1, 16, 200])
def test_compiled_profile_allocates_no_hash_table(m):
    # a profile is the pattern and q: the compiled searches build their
    # own tables, so building one takes O(m) memory on either engine
    pat = bytes(random.Random(m).choices(range(256), k=m))
    assert _peak(build_profile, pat, min(3, m)) < 16 * 1024


def test_profile_hq_is_the_dense_table_on_both_engines():
    # the traced and Python searches read these tables; the compiled ones
    # build their own, compared in tests/test_native.py
    rng = random.Random(17)
    cases = [(EXAMPLE, 3), (b"a", 1), (b"abcd", 4), (b"ab" * 40_000, 8)]
    cases += [(bytes(rng.choices(b"ab", k=m)), rng.randint(1, min(m, 8)))
              for m in range(1, 30)]
    for pat, q in cases:
        prof = build_profile(pat, q)
        assert "hq" not in vars(prof)  # built on each read
        assert prof.hq == hash_tables(pat, q)[0], (pat[:20], q)


@pytest.mark.parametrize("pat,q", [(b"abc", 4), (b"abc", 0), (b"abc", 9),
                                   (b"", 1), (b"x" * 20, 9)])
def test_profile_rejects_bad_q(pat, q):
    with pytest.raises(ConfigurationError):
        build_profile(pat, q)


def test_bits_other_than_8_or_16_rejected_on_both_engines():
    for bits in (0, 3, 12, 32):
        with pytest.raises(ConfigurationError, match="bits must be 8 or"):
            hash_tables(b"abcab", 2, bits)
    with pytest.raises(ConfigurationError, match="bits must be 8 or"):
        qgram_hashes(b"abcab", 2, 3)


def test_q_equal_to_m_allowed():
    prof = build_profile(b"abcd", 4)
    assert prof.hq[qgram_hash16(b"abcd", 4)] == 0
    assert prof.dist[4] == 1
