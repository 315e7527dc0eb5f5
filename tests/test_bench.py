import csv
import io
from functools import partial

import pytest

from qgramsearch import BenchmarkError, BenchSpec, ConfigurationError, \
    EmbedSource, FibonacciSource, FileSource, SearchOutcome, SearchStats, \
    SearchTrace, emit_report, run_benchmark
from qgramsearch import bench as bench_mod

CSV_HEADER = ("algo,q,m,n,occ,reps,total_ms,char_cmp,first_char_checks,"
              "hash_char_reads,hq_shifts,dist_shifts,kmp_shifts,seed")


def small_spec(**overrides):
    base = dict(source=FibonacciSource(15), algorithms=("kmp", "distq"),
                qs=(3,), pattern_lengths=(8,), patterns_per_length=2,
                repetitions=2, trials=2, seed=42)
    base.update(overrides)
    return BenchSpec(**base)


def test_fibonacci_spec_rows():
    rows = run_benchmark(small_spec())
    assert [(r.algo, r.q, r.m) for r in rows] == [("kmp", 0, 8), ("distq", 3, 8)]
    n = rows[0].n
    assert all(r.n == n and r.reps == 2 and r.seed == 42 for r in rows)
    assert rows[0].occ == rows[1].occ  # agreement held
    assert all(r.total_ms >= 0 for r in rows)


def test_rows_deterministic_except_time():
    spec = small_spec(algorithms=("naive", "kmp", "hashq", "distq", "ldistq"))
    strip = lambda rows: [(r.algo, r.q, r.m, r.n, r.occ, r.reps, r.stats, r.seed)
                          for r in rows]
    assert strip(run_benchmark(spec)) == strip(run_benchmark(spec))


def test_q_clamped_and_deduplicated():
    # m = 4 clamps q = 6 and q = 8 onto the same effective cell
    rows = run_benchmark(small_spec(algorithms=("distq",), qs=(6, 8, 2),
                                    pattern_lengths=(4,)))
    assert [(r.algo, r.q) for r in rows] == [("distq", 2), ("distq", 4)]


def test_embed_source_rows_per_occ():
    spec = small_spec(source=EmbedSource(n=4000, sigma=4, occs=(0, 16)),
                      algorithms=("naive", "distq"), pattern_lengths=(8,),
                      patterns_per_length=1)
    rows = run_benchmark(spec)
    assert [(r.algo, r.occ) for r in rows] == [
        ("naive", 0), ("distq", 0), ("naive", 16), ("distq", 16)]
    assert all(r.n == 4000 for r in rows)


def test_file_source(tmp_path):
    path = tmp_path / "text.bin"
    path.write_bytes(b"abaabbaaa" * 300)
    rows = run_benchmark(small_spec(source=FileSource(str(path)),
                                    algorithms=("naive", "ldistq")))
    assert {r.algo for r in rows} == {"naive", "ldistq"}
    assert rows[0].n == 2700


def test_disagreement_is_a_hard_failure(monkeypatch):
    def broken(text, pattern, q):
        return SearchOutcome([], SearchStats(), SearchTrace())
    monkeypatch.setitem(bench_mod.MATCHERS, "kmp", (broken, False))
    spec = small_spec(source=EmbedSource(n=2000, sigma=4, occs=(8,)),
                      algorithms=("kmp", "distq"), patterns_per_length=1)
    with pytest.raises(BenchmarkError, match="disagree"):
        run_benchmark(spec)


def test_unstable_counters_across_trials_detected(monkeypatch):
    calls = []

    def flaky(text, pattern, q):
        calls.append(1)
        return SearchOutcome([1], SearchStats(char_comparisons=len(calls)),
                             SearchTrace())
    monkeypatch.setitem(bench_mod.MATCHERS, "distq", (flaky, True))
    with pytest.raises(BenchmarkError, match="trials"):
        run_benchmark(small_spec(algorithms=("distq",)))


SPEC_ERRORS = [
    (dict(repetitions=0), "repetitions must be >= 1"),
    (dict(trials=0), "trials must be >= 1"),
    (dict(algorithms=("quantum",)), "unknown algorithm 'quantum'"),
    (dict(algorithms=()), "algorithm list is empty"),
    (dict(qs=(0,)), "q values must be >= 1"),
    (dict(pattern_lengths=()), "pattern lengths must be >= 1"),
    (dict(patterns_per_length=0), "patterns_per_length must be >= 1"),
    (dict(algorithms=("kmp", "kmp")), "algorithm 'kmp' is listed twice"),
    # rows that no column tells apart, and an embed corpus's one pattern
    (dict(pattern_lengths=(8, 8)), "pattern length 8 is listed twice"),
    (dict(source=partial(EmbedSource, n=2000, sigma=4, occs=(3, 3)),
          patterns_per_length=1), "occ value 3 is listed twice"),
    (dict(source=EmbedSource(n=2000, sigma=4, occs=(3,))),
     "exactly one pattern per corpus"),
    (dict(source="fib"), "unknown corpus source"),  # not a source type
    # a setting that is not an int, before a comparison or a run meets it
    (dict(qs=("x",)), "q value must be an int, got 'x'"),
    (dict(repetitions="2"), "repetitions must be an int, got '2'"),
    (dict(pattern_lengths=(8.5,)), r"pattern length must be an int, got 8\.5"),
    (dict(patterns_per_length=2.0),
     r"patterns_per_length must be an int, got 2\.0"),
    (dict(trials=None), "trials must be an int, got None"),
    # a source checks its own fields (a partial builds it inside the test)
    (dict(source=partial(FibonacciSource, "12")),
     "k must be an int, got '12'"),
    (dict(source=partial(FibonacciSource, 12.0)),
     r"k must be an int, got 12\.0"),
    (dict(source=partial(FibonacciSource, 41)), r"k must be in \[1, 40\]"),
    (dict(source=partial(EmbedSource, n="100", sigma=4, occs=(1,))),
     "n must be an int, got '100'"),
    (dict(source=partial(EmbedSource, n=0, sigma=4, occs=(1,))),
     "n must be >= 1, got 0"),
    (dict(source=partial(EmbedSource, n=100, sigma=4.0, occs=(1,))),
     r"sigma must be an int, got 4\.0"),
    (dict(source=partial(EmbedSource, n=100, sigma=1, occs=(1,))),
     r"sigma must be in \[2, 95\], got 1"),
    (dict(source=partial(EmbedSource, n=100, sigma=4, occs=("1",))),
     "occ value must be an int, got '1'"),
    (dict(source=partial(EmbedSource, n=100, sigma=4, occs=1)),
     "occs must be a tuple, got 1"),
    (dict(source=partial(EmbedSource, n=100, sigma=4, occs=(1, -1))),
     "occ value must be >= 0, got -1"),
    (dict(source=partial(FileSource, 0)),
     "path must be a str, bytes or os.PathLike, got 0"),
    (dict(source=partial(FileSource, "t.txt", "yes")),
     "strip_newlines must be a bool, got 'yes'"),
    # a setting that is not a tuple, or a seed that is not an int
    (dict(seed=[1]), r"seed must be an int, got \[1\]"),
    (dict(qs=3), "q values must be a tuple, got 3"),
    (dict(algorithms="kmp"), "algorithms must be a tuple, got 'kmp'"),
    (dict(pattern_lengths=[8]), r"pattern lengths must be a tuple, got \[8\]"),
    # CorpusSpec's rule for the largest corpus, before the occ=1 cell runs
    (dict(source=EmbedSource(n=100, sigma=4, occs=(1, 30)),
          pattern_lengths=(4,), patterns_per_length=1),
     r"occ\*m = 120 exceeds n = 100"),
]


# each case raises its own message, so no other check can pass for it
@pytest.mark.parametrize("overrides, message", SPEC_ERRORS, ids=[
    f"overrides{i}" for i in range(len(SPEC_ERRORS))])
def test_spec_validation(overrides, message):
    with pytest.raises(ConfigurationError, match=message):
        # the record constructors themselves, before any run
        small_spec(**{name: value() if isinstance(value, partial) else value
                      for name, value in overrides.items()})


def test_embed_source_needs_occ_values():
    with pytest.raises(ConfigurationError, match="at least one occ value"):
        small_spec(source=EmbedSource(n=100, sigma=4, occs=()))


# --- reports ---

def test_csv_header_and_roundtrip():
    rows = run_benchmark(small_spec())
    report = emit_report(rows)
    lines = report.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    parsed = list(csv.DictReader(io.StringIO(report)))
    for row, rec in zip(rows, parsed):
        assert rec["algo"] == row.algo
        assert int(rec["q"]) == row.q
        assert int(rec["m"]) == row.m
        assert int(rec["n"]) == row.n
        assert int(rec["occ"]) == row.occ
        assert int(rec["reps"]) == row.reps
        assert float(rec["total_ms"]) == row.total_ms  # exact round-trip
        assert int(rec["char_cmp"]) == row.stats.char_comparisons
        assert int(rec["first_char_checks"]) == row.stats.first_char_checks
        assert int(rec["hash_char_reads"]) == row.stats.hashed_char_reads
        assert int(rec["hq_shifts"]) == row.stats.hq_shifts
        assert int(rec["dist_shifts"]) == row.stats.dist_shifts
        assert int(rec["kmp_shifts"]) == row.stats.kmp_shifts
        assert int(rec["seed"]) == row.seed


def test_markdown_report_same_numbers():
    rows = run_benchmark(small_spec())
    md = emit_report(rows, format="markdown")
    body = [line for line in md.splitlines() if line.startswith("|")][2:]
    csv_rows = emit_report(rows).splitlines()[1:]
    for md_line, csv_line in zip(body, csv_rows):
        md_cells = [c.strip() for c in md_line.strip("|").split("|")]
        assert md_cells == csv_line.split(",")


def test_report_rejects_empty_and_unknown_format():
    with pytest.raises(ConfigurationError):
        emit_report([])
    rows = run_benchmark(small_spec(algorithms=("kmp",)))
    with pytest.raises(ConfigurationError):
        emit_report(rows, format="yaml")
