import csv
import io

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


@pytest.mark.parametrize("overrides", [
    dict(repetitions=0), dict(trials=0), dict(algorithms=("quantum",)),
    dict(algorithms=()), dict(qs=(0,)), dict(pattern_lengths=()),
    dict(patterns_per_length=0), dict(algorithms=("kmp", "kmp")),
    # rows that no column tells apart, and an embed corpus's one pattern
    dict(pattern_lengths=(8, 8)),
    dict(source=EmbedSource(n=2000, sigma=4, occs=(3, 3)),
         patterns_per_length=1),
    dict(source=EmbedSource(n=2000, sigma=4, occs=(3,))),
])
def test_spec_validation(overrides):
    with pytest.raises(ConfigurationError):
        run_benchmark(small_spec(**overrides))


def test_embed_source_needs_occ_values():
    with pytest.raises(ConfigurationError):
        run_benchmark(small_spec(source=EmbedSource(n=100, sigma=4, occs=())))


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
    with pytest.raises(ValueError):
        emit_report([])
    rows = run_benchmark(small_spec(algorithms=("kmp",)))
    with pytest.raises(ConfigurationError):
        emit_report(rows, format="yaml")
