import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from qgramsearch import ConfigurationError, PatternProfile, build_profile, \
    distq_search, hashq_search, kmp_shift_table, qgram_hash16
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
    assert kmp_shift_table(b"a") == [0, 1, 1]
    assert kmp_shift_table(b"aa") == [0, 1, 2, 1]


def test_kmp_shift_example_pattern():
    assert kmp_shift_table(EXAMPLE)[1:] == [1, 1, 3, 2, 4, 3, 7, 6, 7, 8]


def _assert_kmp_shifts_match_oracle(patterns):
    # entry j is j - strong_border(j) - 1
    want = [[0] + [j - strong_border_oracle(pat, j) - 1
                   for j in range(1, len(pat) + 2)] for pat in patterns]
    assert [kmp_shift_table(pat) for pat in patterns] == want


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


# --- hash shift table: a map read as hq.get(h, m - q + 1) ---

def test_hq_table_example_pattern():
    table, _ = hash_tables(EXAMPLE, 3)
    expected = {2041: 6, 2053: 1, 2038: 4, 2042: 3, 2057: 2, 2037: 0}
    assert table == expected  # every other hash reads the default 7


def test_hq_table_uniform_pattern():
    table, _ = hash_tables(b"aaa", 3)
    h = qgram_hash16(b"aaa", 3)
    assert table == {h: 0}  # every other hash reads the default 1


def test_hq_table_two_gram_pattern():
    table, _ = hash_tables(b"abab", 2)
    assert table == {qgram_hash16(b"ab", 2): 0,  # rightmost "ab" ends at 4
                     qgram_hash16(b"ba", 2): 1}  # rightmost "ba" ends at 3


def test_hq_table_full_direct_evaluation():
    rng = random.Random(41)
    for _ in range(3):
        m = rng.randint(4, 18)
        pat = bytes(rng.choices(b"abc", k=m))
        q = rng.randint(1, min(8, m))
        table, _ = hash_tables(pat, q)
        # big-int oracle hash of every pattern q-gram, computed once
        gram = [(j, hash16_oracle(pat[j - q:j], q)) for j in range(q, m + 1)]
        for c in range(1 << 16):
            best = q - 1
            for j, h in gram:
                if h == c:
                    best = j
            assert table.get(c, m - q + 1) == m - best, (pat, q, c)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hq_table_spot_checks(data):
    pat = data.draw(st.binary(min_size=1, max_size=32))
    q = data.draw(st.integers(1, min(8, len(pat))))
    table, _ = hash_tables(pat, q)
    m = len(pat)
    for j in range(q, m + 1):
        h = qgram_hash16(pat[j - q:j], q)
        assert table[h] == hq_shift_oracle(pat, q, h)
        assert table[h] <= m - j  # at most the distance of this q-gram
    for c in data.draw(st.lists(st.integers(0, (1 << 16) - 1), max_size=8)):
        assert table.get(c, m - q + 1) == hq_shift_oracle(pat, q, c)


# --- distance table ---

def test_dist_table_example_pattern():
    assert hash_tables(EXAMPLE, 3)[1] == [0, 1, 1, 1, 2, 3, 4, 5, 4, 7]


def test_dist_table_small_patterns():
    assert hash_tables(b"aaaa", 3)[1] == [0, 1, 1, 1, 1]
    assert hash_tables(b"abcabc", 3)[1][3:] == [1, 2, 3, 3]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_dist_table_matches_direct_formula(data):
    pat = data.draw(st.binary(min_size=1, max_size=40))
    q = data.draw(st.integers(1, min(8, len(pat))))
    _, dist = hash_tables(pat, q)
    for j in range(1, len(pat) + 1):
        assert dist[j] == dist_oracle(pat, q, j), (pat, q, j)
        assert 1 <= dist[j] <= max(1, j - q + 1)


# --- profile ---

def test_profile_is_its_validated_pattern_and_q():
    prof = build_profile(EXAMPLE, 3)
    assert vars(prof) == {"pattern": EXAMPLE, "q": 3}  # and no table
    again = PatternProfile(bytearray(EXAMPLE), 3)
    assert type(again.pattern) is bytes
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
    table, got_dist = hash_tables(pat, q)
    table8, got_dist8 = hash_tables(pat, q, 8)
    got = ([table.get(h, m - q + 1) for h in hashes], got_dist,
           [table8.get(c, m - q + 1) for c in range(256)], got_dist8)
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
    # the Python scan's one hash table is the hq map of at most m - q + 1
    # pattern hashes, so it takes O(m) memory with either fingerprint: 16 KB,
    # or 512 B per pattern byte when that is more (a dense 16-bit table
    # alone took 256 KB)
    pat = bytes(random.Random(m).choices(range(256), k=m))
    for bits in (16, 8):
        assert _peak(hash_tables, pat, min(3, m), bits) < \
            1024 * max(16, m // 2), bits


@pytest.mark.parametrize("m", [1, 16, 200])
def test_compiled_profile_allocates_no_hash_table(m):
    # a profile is the pattern and q: the compiled searches build their
    # own tables, so building one takes O(m) memory on either engine
    pat = bytes(random.Random(m).choices(range(256), k=m))
    assert _peak(build_profile, pat, min(3, m)) < 16 * 1024


def test_hq_map_holds_one_entry_per_pattern_hash():
    # the traced and Python searches read this map; the compiled ones build
    # a dense table of their own, compared in tests/test_native.py
    rng = random.Random(17)
    cases = [(EXAMPLE, 3), (b"a", 1), (b"abcd", 4), (b"ab" * 40_000, 8)]
    cases += [(bytes(rng.choices(b"ab", k=m)), rng.randint(1, min(m, 8)))
              for m in range(1, 30)]
    for pat, q in cases:
        table, _ = hash_tables(pat, q)
        m = len(pat)
        assert set(table) == set(qgram_hashes(pat, q)[q:]), (pat[:20], q)
        # a real shift m - j is below the default m - q + 1
        assert all(0 <= s <= m - q for s in table.values()), (pat[:20], q)


@pytest.mark.parametrize("pat,q", [(b"abc", 4), (b"abc", 0), (b"abc", 9),
                                   (b"", 1), (b"x" * 20, 9), (b"ab", 9),
                                   (b"ab", "x"), (b"ab", None),
                                   (b"abab", 1.5)])
def test_profile_rejects_bad_q(pat, q):
    # a profile validates itself, so a hand-built one cannot reach a search;
    # a q that is not an int is named in the message
    for make in (build_profile, PatternProfile,
                 lambda pat, q: distq_search(b"abcabc",
                                             PatternProfile(pat, q)),
                 lambda pat, q: hashq_search(b"abcabc", pat, q)):
        with pytest.raises(ConfigurationError) as err:
            make(pat, q)
        if not isinstance(q, int):
            assert str(err.value) == f"q must be an int, got {q!r}"


def test_bits_other_than_8_or_16_rejected_on_both_engines():
    for bits in (0, 3, 12, 32):
        with pytest.raises(ConfigurationError, match="bits must be 8 or"):
            hash_tables(b"abcab", 2, bits)
    with pytest.raises(ConfigurationError, match="bits must be 8 or"):
        qgram_hashes(b"abcab", 2, 3)


def test_q_equal_to_m_allowed():
    assert build_profile(b"abcd", 4) == PatternProfile(b"abcd", 4)
    assert hash_tables(b"abcd", 4) == ({qgram_hash16(b"abcd", 4): 0},
                                       [0, 1, 1, 1, 1])
