import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from qgramsearch import ConfigurationError, SearchStats, build_profile, \
    distq_search, fibonacci_string, hashq_search, kmp_search, \
    kmp_shift_table, ldistq_search, naive_search
from qgramsearch.hashing import qgram_hashes
from oracles import dist_oracle, hash8_oracle, occurrences_oracle

PATTERN = b"abaabbaaa"
TEXT = b"abbaabbaababbabbaaabaabaabbaaa"

GOLDEN_SHIFTS = [("hq", 1), ("dist", 4), ("hq", 2), ("dist", 5),
                 ("hq", 6), ("kmp", 3)]


@st.composite
def search_case(draw):
    sigma = draw(st.sampled_from((2, 4, 26, 95, 256)))
    m = draw(st.integers(1, 80))
    n = draw(st.integers(m, 220))
    seed = draw(st.integers(0, 2 ** 32))
    rng = random.Random(seed)
    al = bytes(rng.sample(range(256), sigma))  # any of the 256 byte values
    text = bytes(rng.choices(al, k=n))
    kind = draw(st.sampled_from(("random", "sampled", "mutated")))
    if kind == "random":
        pattern = bytes(rng.choices(al, k=m))
    else:
        s = rng.randint(0, n - m)
        pattern = bytearray(text[s:s + m])
        if kind == "mutated":
            pattern[rng.randrange(m)] = rng.choice(al)
        pattern = bytes(pattern)
    q = draw(st.integers(1, min(8, m)))
    return text, pattern, q


# --- naive ---

def test_naive_golden_and_overlaps():
    assert naive_search(TEXT, PATTERN) == [22]
    assert naive_search(b"aaaa", b"aa") == [1, 2, 3]
    assert naive_search(b"abc", b"abcd") == []
    assert naive_search(b"", b"a") == []
    assert naive_search(b"abc", b"abc") == [1]


def test_naive_matches_quadratic_oracle():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 60)
        m = rng.randint(1, 8)
        t = bytes(rng.choices(b"ab", k=n))
        p = bytes(rng.choices(b"ab", k=m))
        assert naive_search(t, p) == occurrences_oracle(t, p)


def test_empty_pattern_rejected_everywhere():
    for call in (lambda: naive_search(b"abc", b""),
                 lambda: kmp_search(b"abc", b""),
                 lambda: hashq_search(b"abc", b"", 1),
                 lambda: build_profile(b"", 1),
                 lambda: kmp_shift_table(b""),
                 lambda: qgram_hashes(b"", 1)):
        with pytest.raises(ConfigurationError):
            call()


# --- kmp ---

def test_kmp_golden():
    assert kmp_search(TEXT, PATTERN).occurrences == [22]


def test_kmp_periodic_text_comparison_bound():
    out = kmp_search(b"a" * 100, b"aa")
    assert out.occurrences == list(range(1, 100))
    assert out.stats.char_comparisons <= 200


def test_kmp_text_shorter_than_pattern():
    out = kmp_search(b"ab", b"abc")
    assert out.occurrences == []
    assert out.stats.char_comparisons == 0
    assert out.stats.windows == 0


def test_kmp_single_window():
    out = kmp_search(b"abc", b"abc")
    assert out.occurrences == [1]
    assert out.stats.windows == 1


def test_kmp_tests_no_byte_past_the_last_window():
    # windows start at 1..4; the shift after the mismatch at 4 would open
    # a window at 5, which does not fit, so its 2 byte tests never happen
    stats = kmp_search(b"xxxxab", b"abc").stats
    assert (stats.windows, stats.kmp_shifts) == (4, 3)
    assert stats.char_comparisons == 4


# --- hashq ---

def test_hashq_examples():
    assert hashq_search(b"a" * 50, b"aaa", 2).occurrences == list(range(1, 49))
    assert hashq_search(TEXT, PATTERN, 3).occurrences == [22]


def test_hashq_disjoint_alphabet_shifts_by_default():
    # no text q-gram collides with a pattern q-gram: every shift is m-q+1
    out = hashq_search(b"a" * 40, b"zzzz", 2, trace=True)
    assert out.occurrences == []
    assert all(kind == "hq" and amt == 3 for kind, amt in out.trace.shifts)
    assert out.stats.char_comparisons == 0


def test_hashq_golden_trace_and_counters():
    out = hashq_search(TEXT, PATTERN, 3, trace=True)
    assert out.trace.shifts == [("hq", 1), ("hq", 4), ("hq", 2), ("hq", 3),
                                ("hq", 0), ("dist", 7), ("hq", 4), ("hq", 0)]
    assert out.trace.hash_ends == [9, 10, 14, 16, 19, 26, 30]
    assert out.stats == SearchStats(char_comparisons=12, hashed_char_reads=21,
                                    hq_shifts=7, dist_shifts=1, windows=7)


def test_hashq_fibonacci_counters():
    text = fibonacci_string(12)
    out = hashq_search(text, text[10:18], 3)
    assert len(out.occurrences) == 20
    assert out.stats == SearchStats(char_comparisons=160, hashed_char_reads=99,
                                    hq_shifts=33, dist_shifts=19, windows=33)


def test_hashq_rejects_bad_q():
    with pytest.raises(ConfigurationError):
        hashq_search(b"abc", b"ab", 3)  # q > m
    with pytest.raises(ConfigurationError):
        hashq_search(b"abc", b"abc", 0)


# --- distq / ldistq ---

def test_distq_golden_trace():
    prof = build_profile(PATTERN, 3)
    out = distq_search(TEXT, prof, trace=True)
    assert out.occurrences == [22]
    assert out.trace.shifts == GOLDEN_SHIFTS
    assert out.trace.positions == [8, 7, 3]
    assert out.stats == SearchStats(
        char_comparisons=13, first_char_checks=3, hashed_char_reads=9,
        hq_shifts=3, dist_shifts=2, kmp_shifts=1, windows=7)


def test_ldistq_golden_trace_identical():
    prof = build_profile(PATTERN, 3)
    a = distq_search(TEXT, prof, trace=True)
    b = ldistq_search(TEXT, prof, trace=True)
    assert a.occurrences == b.occurrences
    assert a.trace == b.trace
    # same alignments hashed, so here the same read count too (no short steps)
    assert a.stats == b.stats
    # a periodic text: border-phase kmp shifts between dist shifts
    text = fibonacci_string(12)
    prof = build_profile(text[20:28], 3)
    want = SearchStats(char_comparisons=84, first_char_checks=20,
                       hashed_char_reads=60, hq_shifts=20, dist_shifts=8,
                       kmp_shifts=11, windows=29)
    assert distq_search(text, prof).stats == want
    assert ldistq_search(text, prof).stats == want


def test_distq_no_occurrence_example():
    prof = build_profile(b"baaaaaaa", 3)
    assert distq_search(b"a" * 200, prof).occurrences == []


def test_distq_text_equals_pattern():
    prof = build_profile(PATTERN, 3)
    out = distq_search(PATTERN, prof)
    assert out.occurrences == [1]
    assert out.stats.windows == 1


def test_distq_text_shorter_than_pattern():
    prof = build_profile(PATTERN, 3)
    out = distq_search(b"abaa", prof, trace=True)
    assert out.occurrences == []
    assert out.stats.windows == 0
    assert out.trace.shifts == []


def test_distq_single_byte_pattern():
    prof = build_profile(b"a", 1)
    assert distq_search(b"banana", prof).occurrences == [2, 4, 6]
    assert ldistq_search(b"banana", prof).occurrences == [2, 4, 6]


def test_distq_q_equal_m():
    prof = build_profile(b"abab", 4)
    assert distq_search(b"abababab", prof).occurrences == [1, 3, 5]


def test_ldistq_rolls_on_dense_alignments():
    # all-a text forces end-position steps of dist[m] = 2 < q: rolling wins
    n = 2000
    prof = build_profile(b"b" + b"a" * 8, 8)
    d = distq_search(b"a" * n, prof, trace=True)
    l = ldistq_search(b"a" * n, prof, trace=True)
    assert d.occurrences == l.occurrences == []
    assert d.trace == l.trace
    assert l.stats.hashed_char_reads < d.stats.hashed_char_reads / 3
    assert l.stats.hashed_char_reads <= 2 * n + 8


def test_hash_end_positions_never_decrease():
    prof = build_profile(PATTERN, 3)
    ends = ldistq_search(TEXT, prof, trace=True).trace.hash_ends
    assert ends == sorted(ends)
    assert all(e <= len(TEXT) for e in ends)


# --- cross-matcher agreement on random inputs ---

@given(search_case())
@settings(max_examples=250, deadline=None)
def test_all_matchers_agree_with_naive(case):
    text, pattern, q = case
    expected = naive_search(text, pattern)
    prof = build_profile(pattern, q)
    ko = kmp_search(text, pattern, trace=True)
    ho = hashq_search(text, pattern, q, trace=True)
    do = distq_search(text, prof, trace=True)
    lo = ldistq_search(text, prof, trace=True)
    # untraced runs count the same work and hold no trace
    for traced, untraced in ((ko, kmp_search(text, pattern)),
                             (ho, hashq_search(text, pattern, q)),
                             (do, distq_search(text, prof)),
                             (lo, ldistq_search(text, prof))):
        assert untraced.occurrences == traced.occurrences
        assert untraced.stats == traced.stats
        assert untraced.trace is None
    assert ko.occurrences == expected
    assert ho.occurrences == expected
    assert do.occurrences == expected
    assert lo.occurrences == expected
    # the two distance matchers are the same algorithm, traced identically
    assert do.trace == lo.trace
    n = len(text)
    assert ko.stats.char_comparisons <= 2 * n
    assert do.stats.char_comparisons <= 2 * n
    assert lo.stats.char_comparisons <= 2 * n
    # O(n + m) hashed bytes for the rolling variant, O((n + m)q) for distq
    m = len(pattern)
    assert lo.stats.hashed_char_reads <= n + m
    assert do.stats.hashed_char_reads <= q * (n + m)
    ends = lo.trace.hash_ends
    assert all(b >= a for a, b in zip(ends, ends[1:]))
    # hashq's post-comparison advance is the 8-bit distance of the suffix
    # q-gram; one that is too small would still find every occurrence
    adv = dist_oracle(pattern, q, len(pattern), hash8_oracle)
    assert all(a == adv for kind, a in ho.trace.shifts if kind == "dist")


@given(search_case())
@settings(max_examples=100, deadline=None)
def test_recorded_shifts_sum_to_window_travel(case):
    text, pattern, q = case
    out = distq_search(text, build_profile(pattern, q), trace=True)
    n, m = len(text), len(pattern)
    if n < m:
        assert out.trace.shifts == []
        return
    # every recorded shift moves the window inside the text, starting at end m
    end = m
    for _, amt in out.trace.shifts:
        end += amt
        assert end <= n
    assert out.stats.windows == 1 + sum(1 for _, a in out.trace.shifts if a > 0)


def test_pattern_longer_than_16_bit_shifts():
    # m = 70 000: shift entries pass 65 535; the text is only a few hundred
    # bytes longer than the pattern, so the naive oracle stays cheap
    rng = random.Random(70_000)
    m = 70_000
    noise = lambda k: bytes(rng.choices(range(256), k=k))
    random_pattern = noise(m)
    unit = bytes(rng.choices(b"acgt", k=97))
    periodic = (unit * (m // 97 + 5))[:m + 300]  # 4 occurrences, 97 apart
    for text, pattern in (
            (noise(137) + random_pattern + noise(163), random_pattern),
            (periodic, periodic[:m])):
        expected = naive_search(text, pattern)
        assert expected
        for q in (3, 8):
            prof = build_profile(pattern, q)
            for table in (prof.kmp, prof.hq, prof.dist):
                assert isinstance(table, array) and table.typecode == "I"
            assert max(prof.kmp) > 65_535 and max(prof.hq) > 65_535
            assert hashq_search(text, pattern, q).occurrences == expected
            assert distq_search(text, prof).occurrences == expected
            assert ldistq_search(text, prof).occurrences == expected
        assert kmp_search(text, pattern).occurrences == expected


def test_stats_are_plain_counters():
    out = distq_search(TEXT, build_profile(PATTERN, 3), trace=True)
    s = out.stats
    assert s.hashed_char_reads == 3 * len(out.trace.hash_ends)
    assert s.hq_shifts + s.dist_shifts + s.kmp_shifts == len(out.trace.shifts)


def test_untraced_search_allocates_nothing_per_event():
    # a 200 000-byte DNA-like text the pattern never occurs in: thousands of
    # shifts, first-byte probes and partial matches, but no occurrence list
    text = bytes(random.Random(5).choices(b"acgt", k=200_000))
    pattern = b"acgtacgx"
    prof = build_profile(pattern, 3)
    for search in (lambda: distq_search(text, prof),
                   lambda: kmp_search(text, pattern)):
        tracemalloc.start()
        try:
            out = search()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.occurrences == [] and out.trace is None
        assert out.stats.windows > 10_000
        assert peak < 64 * 1024, peak
