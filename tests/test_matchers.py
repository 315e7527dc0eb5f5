import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st, target

from qgramsearch import ConfigurationError, PatternProfile, SearchStats, \
    SearchTrace, build_profile, distq_search, fibonacci_string, \
    hashq_search, kmp_search, kmp_shift_table, ldistq_search, matchers, \
    naive_search
from qgramsearch.matchers import MATCHERS, check_q
from qgramsearch.pyengine import hash_tables, qgram_hashes
from oracles import dist_oracle, hash8_oracle, occurrences_oracle, \
    peak_bytes

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
                 lambda: PatternProfile(b"", 1),
                 lambda: kmp_shift_table(b""),
                 lambda: qgram_hashes(b"", 1)):
        with pytest.raises(ConfigurationError):
            call()


# --- kmp ---

def test_kmp_golden():
    # kmp hashes nothing: only kmp shifts, no positions and no hash ends
    stats = SearchStats(char_comparisons=36, kmp_shifts=10, windows=11)
    for out in (kmp_search(TEXT, PATTERN), kmp_search(TEXT, PATTERN, True)):
        assert (out.occurrences, out.stats) == ([22], stats)
    assert out.trace.shifts == [("kmp", 3), ("kmp", 1), ("kmp", 3),
                                ("kmp", 1), ("kmp", 2), ("kmp", 3),
                                ("kmp", 3), ("kmp", 1), ("kmp", 1), ("kmp", 3)]
    assert out.trace.positions == out.trace.hash_ends == []
    out = kmp_search(fibonacci_string(12), b"abaab", trace=True)
    assert len(out.occurrences) == 33
    assert out.stats == SearchStats(char_comparisons=163, kmp_shifts=53,
                                    windows=54)
    assert out.trace.shifts == [("kmp", int(amt)) for amt in
                                "32332323323323233232332332323323323233232"
                                "332332323323"]


def test_kmp_periodic_text_comparison_bound():
    out = kmp_search(b"a" * 100, b"aa")
    assert out.occurrences == list(range(1, 100))
    assert out.stats.char_comparisons <= 200


# Worst cases for the 2n comparison bound, from a hill-climb over texts of
# up to four letters: each reaches 1.9n or more, so a counter that stopped
# counting, or counted twice, shows, and each pins every counter on both
# engines.  kmp tests each b twice, as b and as a; distq and ldistq align
# the opening bbab with one hash shift and walk the run of b with border
# shifts, testing each b about twice too.
WORST_CASES = [
    ("kmp", b"b" * 41 + b"a", b"ba", 0, [41], SearchStats(
        char_comparisons=82, kmp_shifts=40, windows=41)),
    *((algo, b"bbab" + b"b" * 77 + b"ab", b"bbab", 2, [1, 80], SearchStats(
        char_comparisons=158, first_char_checks=1, hashed_char_reads=2,
        hq_shifts=1, kmp_shifts=77, windows=78))
      for algo in ("distq", "ldistq")),
]


@pytest.mark.parametrize("algo, text, pattern, q, occurrences, stats",
                         WORST_CASES, ids=[case[0] for case in WORST_CASES])
def test_worst_cases_come_within_10_percent_of_2n(monkeypatch, algo, text,
                                                  pattern, q, occurrences,
                                                  stats):
    run = MATCHERS[algo][0]
    compiled = run(text, pattern, q)  # the Python loop where none loaded
    monkeypatch.setattr(matchers, "engine", None)
    for out in (compiled, run(text, pattern, q)):
        assert (out.occurrences, out.stats) == (occurrences, stats)
    assert 1.8 * len(text) <= stats.char_comparisons <= 2 * len(text)


def _runs(most, longest):
    """Bytes made of up to ``most`` runs of one of four letters, each run
    up to ``longest`` long: the shape of the worst cases above."""
    return st.lists(st.tuples(st.sampled_from(b"abcd"),
                              st.integers(1, longest)),
                    min_size=1, max_size=most).map(
        lambda runs: b"".join(bytes([c]) * k for c, k in runs))


@st.composite
def run_case(draw):
    pattern = draw(_runs(4, 4))[:8]
    return draw(_runs(6, 24))[:64], pattern, \
        draw(st.integers(1, min(8, len(pattern))))


@given(run_case())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_targeted_search_keeps_the_work_bounds(case):
    # hypothesis climbs towards the worst case of each bound (targeted
    # property-based testing); with --hypothesis-show-statistics it prints
    # the highest ratios it reached, which the README's Claims table cites
    text, pattern, q = case
    n, m = len(text), len(pattern)
    for algo in ("kmp", "distq", "ldistq"):
        out = MATCHERS[algo][0](text, pattern, q)
        assert out.occurrences == naive_search(text, pattern)
        assert out.stats.char_comparisons <= 2 * n
        target(out.stats.char_comparisons / n, label=f"{algo} cmp / n")
    reads = out.stats.hashed_char_reads  # ldistq's
    assert reads <= n + m
    target(reads / (n + m), label="ldistq reads / (n + m)")


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
    assert out.trace == SearchTrace(
        shifts=[("hq", 1), ("hq", 4), ("hq", 2), ("hq", 3), ("hq", 0),
                ("dist", 7), ("hq", 4), ("hq", 0)],
        positions=[], hash_ends=[9, 10, 14, 16, 19, 26, 30])
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


# --- profile ---

def test_profile_is_its_validated_pattern_and_q():
    prof = build_profile(PATTERN, 3)
    assert vars(prof) == {"pattern": PATTERN, "q": 3}  # and no table
    again = PatternProfile(bytearray(PATTERN), 3)
    assert type(again.pattern) is bytes
    assert again == prof and hash(again) == hash(prof)
    assert {prof: 1}[again] == 1


@pytest.mark.parametrize("m", [1, 16, 200])
def test_compiled_profile_allocates_no_hash_table(m):
    # a profile is the pattern and q: the compiled searches build their
    # own tables, so building one takes O(m) memory on either engine
    pat = bytes(random.Random(m).choices(range(256), k=m))
    assert peak_bytes(build_profile, pat, min(3, m)) < 16 * 1024


@pytest.mark.parametrize("pat,q", [(b"abc", 4), (b"abc", 0), (b"abc", 9),
                                   (b"", 1), (b"x" * 20, 9), (b"ab", 9),
                                   (b"ab", "x"), (b"ab", None),
                                   (b"abab", 1.5), (b"abc", False),
                                   (b"abc", -1), (b"abc", 2 ** 70),
                                   (b"", None)])
def test_profile_rejects_bad_q(monkeypatch, pat, q):
    # a profile validates itself, so a hand-built one cannot reach a search;
    # a q that is not an int is named in the message
    makes = [build_profile, PatternProfile,
             lambda pat, q: distq_search(b"abcabc", PatternProfile(pat, q)),
             lambda pat, q: ldistq_search(b"abcabc", PatternProfile(pat, q))]
    makes += [lambda pat, q, run=run: run(b"abcabc", pat, q)  # hashq's too
              for run, takes_q in MATCHERS.values() if takes_q]
    if not pat:
        makes += [lambda pat, q: kmp_search(b"abcabc", pat),
                  lambda pat, q: MATCHERS["kmp"][0](b"abcabc", pat, q)]
    with pytest.raises(ConfigurationError) as want:
        check_q(q, len(pat))
    if pat and not isinstance(q, int):
        assert str(want.value) == f"q must be an int, got {q!r}"
    # check_q words every rejection, on both engines and any pattern form
    for engine in (matchers.engine, None):
        monkeypatch.setattr(matchers, "engine", engine)
        for form in (pat, list(pat)):
            for make in makes:
                with pytest.raises(ConfigurationError) as err:
                    make(form, q)
                assert str(err.value) == str(want.value), (engine, form)


def test_check_q_words_each_rejection_in_order():
    # the matchers test an accepted q inline and leave every other q here
    for m, q, message in ((0, "x", "pattern must be non-empty"),
                          (2, "x", "q must be an int, got 'x'"),
                          (2, 9, "q must be in [1, 8], got 9"),
                          (2, False, "q must be in [1, 8], got False"),
                          (2, 3, "q = 3 exceeds pattern length m = 2")):
        with pytest.raises(ConfigurationError) as err:
            check_q(q, m)
        assert str(err.value) == message


@pytest.fixture(params=["c", "python"])
def either_engine(request, monkeypatch):
    # "python" runs the untraced searches on the Python loop as well
    if request.param == "python":
        monkeypatch.setattr(matchers, "engine", None)


class _Bytes(bytes):
    pass


WRAPPED = {
    "kmp": lambda p, q, trace: kmp_search(TEXT, p, trace),
    "hashq": lambda p, q, trace: hashq_search(TEXT, p, q, trace),
    "distq": lambda p, q, trace: distq_search(TEXT, build_profile(p, q),
                                              trace),
    "ldistq": lambda p, q, trace: ldistq_search(TEXT, PatternProfile(p, q),
                                                trace),
}


@pytest.mark.parametrize("algo", WRAPPED)
def test_any_pattern_form_searches_as_its_bytes(either_engine, algo):
    # a bytes pattern is used as it is, every other form is converted
    search = WRAPPED[algo]
    for trace in (False, True):
        want = search(PATTERN, 3, trace)
        assert want.occurrences == [22]
        for form in (bytearray(PATTERN), memoryview(PATTERN), list(PATTERN),
                     _Bytes(PATTERN)):
            assert search(form, 3, trace) == want, (form, trace)


def test_profile_pattern_is_exact_bytes():
    for form in (PATTERN, bytearray(PATTERN), memoryview(PATTERN),
                 list(PATTERN), _Bytes(PATTERN)):
        for prof in (build_profile(form, 3), PatternProfile(form, 3)):
            assert type(prof.pattern) is bytes and prof.pattern == PATTERN
    assert build_profile(PATTERN, 3).pattern is PATTERN


@pytest.mark.parametrize("algo", ["hashq", "distq", "ldistq"])
def test_bool_q_is_accepted_as_1(either_engine, algo):
    search = WRAPPED[algo]
    for trace in (False, True):
        assert search(PATTERN, True, trace) == search(PATTERN, 1, trace)
    assert MATCHERS[algo][0](TEXT, PATTERN, True) == \
        MATCHERS[algo][0](TEXT, PATTERN, 1)
    assert build_profile(PATTERN, True) == build_profile(PATTERN, 1)


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
            hq, _ = hash_tables(pattern, q)
            assert max(kmp_shift_table(pattern)) > 65_535
            assert max(hq.get(h, m - q + 1) for h in range(1 << 16)) > 65_535
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
    # a 50 000-byte DNA-like text the pattern never occurs in: thousands of
    # shifts, first-byte probes and partial matches, but no occurrence list
    text = bytes(random.Random(5).choices(b"acgt", k=50_000))
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
        assert out.stats.windows > 2_500
        assert peak < 16 * 1024, peak
