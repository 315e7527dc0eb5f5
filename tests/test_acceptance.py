"""End-to-end acceptance checks.

One test per shipping criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
fuzz corpus is generated once and shared by the equivalence, comparison
bound and trace equality criteria.
"""

import csv
import io
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from qgramsearch import (BenchSpec, CorpusSpec, EmbedSource, alphabet_bytes,
                         build_profile, distq_search, emit_report,
                         fibonacci_string, hashq_search,
                         kmp_search, kmp_shift_table, ldistq_search,
                         naive_search,
                         random_text_with_occurrences, run_benchmark)
from qgramsearch.pyengine import hash_tables, qgram_hashes
from oracles import hash16_oracle

PATTERN = b"abaabbaaa"
TEXT = b"abbaabbaababbabbaaabaabaabbaaa"

FUZZ_CASES = 10_000
FUZZ_SEED = 0xACCE97


@contextmanager
def criterion(num, title, limit_s=None):
    started = time.perf_counter()
    try:
        yield
        if limit_s is not None:
            elapsed = time.perf_counter() - started
            assert elapsed < limit_s, \
                f"criterion {num} took {elapsed:.1f}s, limit {limit_s}s"
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {title}")
        raise
    print(f"criterion {num:2d}: PASS - {title}")


@pytest.fixture(scope="module")
def fuzz():
    """Run all matchers over the shared seeded fuzz corpus once."""
    started = time.perf_counter()
    rng = random.Random(FUZZ_SEED)
    eq_failures = []      # occurrences differ from naive, untraced runs
                          # differ from traced ones, or a matcher raised
    cmp_violations = []   # char_comparisons > 2n
    read_violations = []  # hashed_char_reads above the O(n + m) bounds
    trace_failures = []   # distq and ldistq traces differ
    for i in range(FUZZ_CASES):
        sigma = rng.choice((2, 4, 26, 95))
        al = alphabet_bytes(sigma)
        m = rng.randint(1, 64)
        r = rng.random()
        hi = 256 if r < 0.90 else (2048 if r < 0.98 else 10_000)
        n = rng.randint(m, max(m, hi))
        text = bytes(rng.choices(al, k=n))
        mode = rng.random()
        if mode < 0.45:
            pattern = bytes(rng.choices(al, k=m))
        else:
            s = rng.randint(0, n - m)
            pat = bytearray(text[s:s + m])
            if mode >= 0.90:
                pat[rng.randrange(m)] = rng.choice(al)
            pattern = bytes(pat)
        q = rng.randint(1, min(8, m))
        tag = f"case {i} (sigma={sigma}, n={n}, m={m}, q={q})"
        try:
            ref = naive_search(text, pattern)
            profile = build_profile(pattern, q)
            outcomes = {"kmp": kmp_search(text, pattern, trace=True),
                        "hashq": hashq_search(text, pattern, q, trace=True),
                        "distq": distq_search(text, profile, trace=True),
                        "ldistq": ldistq_search(text, profile, trace=True)}
        except Exception as exc:
            eq_failures.append(f"{tag}: raised {exc!r}")
            continue
        for name, outcome in outcomes.items():
            if outcome.occurrences != ref:
                eq_failures.append(f"{tag}: {name} != naive")
        # untraced runs take the compiled engine when it is loaded; they
        # must find and count exactly what the traced Python engine does
        untraced = {"kmp": kmp_search(text, pattern),
                    "hashq": hashq_search(text, pattern, q),
                    "distq": distq_search(text, profile),
                    "ldistq": ldistq_search(text, profile)}
        for name, outcome in untraced.items():
            if (outcome.occurrences, outcome.stats) != \
                    (outcomes[name].occurrences, outcomes[name].stats):
                eq_failures.append(f"{tag}: untraced {name} != traced")
        for name in ("kmp", "distq", "ldistq"):
            cmps = outcomes[name].stats.char_comparisons
            if cmps > 2 * n:
                cmp_violations.append(f"{tag}: {name} made {cmps} > 2n")
        for name, bound in (("ldistq", n + m), ("distq", q * (n + m))):
            reads = outcomes[name].stats.hashed_char_reads
            if reads > bound:
                read_violations.append(f"{tag}: {name} read {reads} > {bound}")
        d, l = outcomes["distq"].trace, outcomes["ldistq"].trace
        if d.shifts != l.shifts or d.positions != l.positions:
            trace_failures.append(tag)
    return SimpleNamespace(cases=FUZZ_CASES,
                           elapsed=time.perf_counter() - started,
                           eq_failures=eq_failures,
                           cmp_violations=cmp_violations,
                           read_violations=read_violations,
                           trace_failures=trace_failures)


def test_criterion_01_golden_tables():
    with criterion(1, "golden preprocessing tables exact", limit_s=1.0):
        hq, dist = hash_tables(PATTERN, 3)
        assert dist[3:] == [1, 2, 3, 4, 5, 4, 7]
        assert kmp_shift_table(PATTERN)[1:] == [1, 1, 3, 2, 4, 3, 7, 6, 7, 8]
        # every other hash reads the default shift m - q + 1 = 7
        assert hq == {2041: 6, 2053: 1, 2038: 4, 2042: 3, 2057: 2, 2037: 0}


def test_criterion_02_golden_trace():
    with criterion(2, "golden search trace exact", limit_s=1.0):
        outcome = distq_search(TEXT, build_profile(PATTERN, 3), trace=True)
        assert outcome.occurrences == [22]
        assert outcome.trace.shifts == [("hq", 1), ("dist", 4), ("hq", 2),
                                        ("dist", 5), ("hq", 6), ("kmp", 3)]
        assert outcome.trace.positions == [8, 7, 3]


def test_criterion_03_oracle_equivalence(fuzz):
    with criterion(3, f"all matchers match naive on {fuzz.cases} fuzz cases"):
        assert fuzz.eq_failures == [], fuzz.eq_failures[:5]
        assert fuzz.elapsed < 60.0, f"fuzz took {fuzz.elapsed:.1f}s"


def test_criterion_04_comparison_bound(fuzz):
    with criterion(4, "char comparisons <= 2n on every fuzz case"):
        assert fuzz.cmp_violations == [], fuzz.cmp_violations[:5]


def test_criterion_05_linearity_separation():
    with criterion(5, "rolling variant stays linear where plain one reads "
                      "quadratically", limit_s=5.0):
        n = 10_000
        text = b"a" * n
        profile = build_profile(b"b" + b"a" * 8, 8)
        plain = distq_search(text, profile).stats.hashed_char_reads
        rolling = ldistq_search(text, profile).stats.hashed_char_reads
        assert rolling <= 2 * n + 8, rolling
        assert plain >= 3 * rolling, (plain, rolling)


def test_criterion_06_trace_equality(fuzz):
    with criterion(6, "distq and ldistq traces identical on every fuzz case"):
        assert fuzz.trace_failures == [], fuzz.trace_failures[:5]


def test_criterion_07_fibonacci_generator():
    with criterion(7, "Fibonacci strings exact", limit_s=1.0):
        assert fibonacci_string(5) == b"abaab"
        assert len(fibonacci_string(32)) == 2_178_309


def test_criterion_08_embedding_generator():
    with criterion(8, "embedded occurrence counts exact at n=400000",
                   limit_s=30.0):
        for sigma in (4, 95):
            for idx, occ in enumerate((0, 128, 1024, 8192)):
                corpus = random_text_with_occurrences(
                    CorpusSpec(n=400_000, sigma=sigma, m=8, occ=occ,
                               seed=9000 + sigma * 10 + idx))
                got = len(naive_search(corpus.text, corpus.pattern))
                assert got == occ, (sigma, occ, got)


def test_criterion_09_rolling_hash_property():
    with criterion(9, "roll equals recompute on 100000 random cases",
                   limit_s=10.0):
        rng = random.Random(1234)
        for _ in range(100_000):
            q = rng.randint(1, 8)
            length = rng.randint(q, q + 10)
            s = bytes(rng.randrange(256) for _ in range(length))
            hs = qgram_hashes(s, q)
            for e in range(q, length + 1):
                assert hs[e] == hash16_oracle(s[e - q:e], q), (s, q, e)


def test_criterion_10_benchmark_harness():
    with criterion(10, "occ-sweep benchmark completes with deterministic "
                       "parseable output", limit_s=120.0):
        occs = (0, 128, 1024, 8192)
        algos = ("naive", "kmp", "hashq", "distq", "ldistq")

        def one_run():
            rows = []
            for sigma in (4, 95):
                rows.extend(run_benchmark(BenchSpec(
                    source=EmbedSource(n=400_000, sigma=sigma, occs=occs),
                    algorithms=algos, qs=(3,), pattern_lengths=(8,),
                    patterns_per_length=1, repetitions=1, trials=1, seed=77)))
            return rows

        rows = one_run()
        assert len(rows) == 2 * len(occs) * len(algos)
        # cross-algorithm agreement: each cell's 5 rows carry one occ value,
        # and it is the value the corpus was built to contain
        for c, start in enumerate(range(0, len(rows), len(algos))):
            cell = rows[start:start + len(algos)]
            assert {row.occ for row in cell} == {occs[c % len(occs)]}

        report = emit_report(rows)
        parsed = list(csv.DictReader(io.StringIO(report)))
        assert report.splitlines()[0] == (
            "algo,q,m,n,occ,reps,total_ms,char_cmp,first_char_checks,"
            "hash_char_reads,hq_shifts,dist_shifts,kmp_shifts,seed")
        assert len(parsed) == len(rows)
        assert all(rec["n"] == "400000" for rec in parsed)

        strip = lambda rs: [(r.algo, r.q, r.m, r.n, r.occ, r.reps, r.stats,
                             r.seed) for r in rs]
        assert strip(rows) == strip(one_run())


def test_criterion_11_hashed_read_bounds(fuzz):
    with criterion(11, "ldistq hashes <= n + m and distq <= q(n + m) text "
                       "bytes on every fuzz case"):
        assert fuzz.read_violations == [], fuzz.read_violations[:5]


def test_criterion_12_occurrence_sweep_ordering():
    # the abstract's "particularly when a pattern frequently appears", in
    # counters: the grid of `qgramsearch bench --embed-n 200000
    # --embed-sigma 4,95 --embed-occ 0 ... --embed-occ 16384 --m 8 --q 3
    # --algos distq,hashq --seed 0`
    with criterion(12, "distq hashes less as occurrences grow and works "
                       "less than hashq in every occ-sweep cell",
                   limit_s=30.0):
        occs = (0, 128, 1024, 4096, 8192, 16384)
        ends = {}
        for sigma in (4, 95):
            rows = run_benchmark(BenchSpec(
                source=EmbedSource(n=200_000, sigma=sigma, occs=occs),
                algorithms=("distq", "hashq"), qs=(3,), pattern_lengths=(8,),
                seed=0))
            distq = [r.stats for r in rows if r.algo == "distq"]
            hashq = [r.stats for r in rows if r.algo == "hashq"]
            assert [r.occ for r in rows if r.algo == "distq"] == list(occs)
            reads = [s.hashed_char_reads for s in distq]
            assert reads == sorted(reads, reverse=True), (sigma, reads)
            ends[sigma] = (reads[0], reads[-1])
            for occ, d, h in zip(occs, distq, hashq):
                d_work = (d.char_comparisons + d.first_char_checks
                          + d.hashed_char_reads)
                h_work = h.char_comparisons + h.hashed_char_reads
                assert d_work < h_work, (sigma, occ, d_work, h_work)
        assert ends == {4: (99_156, 67_947), 95: (99_999, 68_040)}
