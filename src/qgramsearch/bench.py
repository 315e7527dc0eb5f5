"""Benchmark harness.

A run is described by a :class:`BenchSpec`: one corpus source, the
algorithms to race, q values, pattern lengths, and the measurement protocol
(``repetitions`` timed searches per trial, wall time taken as the best of
``trials`` trials).  Preprocessing is re-run inside every repetition, so a
row's time is the full cost of preparing and running that matcher.

Counters must be identical across trials and all algorithms must agree on
the occurrence count of every pattern; either violation raises
:class:`~qgramsearch.errors.BenchmarkError` naming the cell.  Rows are
deterministic in everything except elapsed time for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from time import perf_counter

from .corpus import CorpusSpec, load_text, fibonacci_string, \
    random_text_with_occurrences, sample_patterns
from .errors import BenchmarkError, ConfigurationError
from .hashing import clamp_q
from .matchers import ALGORITHMS, MATCHERS, SearchStats

CSV_COLUMNS = ("algo", "q", "m", "n", "occ", "reps", "total_ms",
               "char_cmp", "first_char_checks", "hash_char_reads",
               "hq_shifts", "dist_shifts", "kmp_shifts", "seed")


@dataclass(frozen=True)
class FileSource:
    path: str
    strip_newlines: bool = False


@dataclass(frozen=True)
class FibonacciSource:
    k: int


@dataclass(frozen=True)
class EmbedSource:
    """Random texts with a known number of embedded pattern occurrences."""

    n: int
    sigma: int
    occs: tuple[int, ...]


@dataclass(frozen=True)
class BenchSpec:
    source: FileSource | FibonacciSource | EmbedSource
    algorithms: tuple[str, ...] = ALGORITHMS
    qs: tuple[int, ...] = (3,)
    pattern_lengths: tuple[int, ...] = (8,)
    patterns_per_length: int = 1
    repetitions: int = 1
    trials: int = 1
    seed: int = 0


@dataclass(frozen=True)
class ReportRow:
    """One measurement cell: an algorithm on one corpus at one (q, m).

    Time, counters and occ aggregate over the patterns of the cell; q is 0
    on rows of matchers that take no q.
    """

    algo: str
    q: int
    m: int
    n: int
    occ: int
    reps: int
    total_ms: float
    stats: SearchStats
    seed: int


def _reject_repeats(values, what: str) -> None:
    """Raise on a value listed twice: no report column tells its rows apart
    (and rows keyed on (algo, q) would add up both runs' figures)."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigurationError(f"{what} {value!r} is listed twice")


def _validate(spec: BenchSpec) -> None:
    if not spec.algorithms:
        raise ConfigurationError("algorithm list is empty")
    for name in spec.algorithms:
        if name not in MATCHERS:
            raise ConfigurationError(f"unknown algorithm {name!r}")
    _reject_repeats(spec.algorithms, "algorithm")
    if not spec.qs or any(q < 1 for q in spec.qs):
        raise ConfigurationError(f"q values must be >= 1, got {spec.qs}")
    if not spec.pattern_lengths or any(m < 1 for m in spec.pattern_lengths):
        raise ConfigurationError(
            f"pattern lengths must be >= 1, got {spec.pattern_lengths}")
    _reject_repeats(spec.pattern_lengths, "pattern length")
    if spec.patterns_per_length < 1:
        raise ConfigurationError(
            f"patterns_per_length must be >= 1, got {spec.patterns_per_length}")
    if isinstance(spec.source, EmbedSource):
        if not spec.source.occs:
            raise ConfigurationError(
                "embed source needs at least one occ value")
        _reject_repeats(spec.source.occs, "occ value")
        if spec.patterns_per_length != 1:
            raise ConfigurationError(
                "an embed source has exactly one pattern per corpus, got "
                f"patterns_per_length={spec.patterns_per_length}")
    if spec.repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be >= 1, got {spec.repetitions}")
    if spec.trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {spec.trials}")


def _measure(algo: str, q: int, text: bytes, pattern: bytes,
             reps: int, trials: int, cell: str):
    """Best-of-trials wall seconds plus the (trial-stable) outcome."""
    runner, _ = MATCHERS[algo]
    best = None
    ref = None
    for _ in range(trials):
        t0 = perf_counter()
        for _ in range(reps):
            outcome = runner(text, pattern, q)
        elapsed = perf_counter() - t0
        if ref is None:
            ref = outcome
        elif (outcome.occurrences != ref.occurrences
              or outcome.stats != ref.stats):
            raise BenchmarkError(
                f"counters changed between trials in cell {cell}, algo={algo}")
        best = elapsed if best is None else min(best, elapsed)
    return best, ref


def _add_stats(acc: SearchStats, extra: SearchStats) -> SearchStats:
    return SearchStats(**{name: value + getattr(extra, name)
                          for name, value in vars(acc).items()})


def _measure_cell(spec: BenchSpec, label: str, text: bytes, m: int,
                  patterns: list[bytes]) -> list[ReportRow]:
    # (algo, q) -> [seconds, stats, occurrences], in report order
    acc: dict[tuple[str, int], list] = {}
    for algo in spec.algorithms:
        _, takes_q = MATCHERS[algo]
        for q in sorted({clamp_q(q, m) for q in spec.qs}) if takes_q else [0]:
            acc[(algo, q)] = [0.0, SearchStats(), 0]
    for p_idx, pattern in enumerate(patterns):
        cell = f"{label}, m={m}, pattern#{p_idx}"
        counts = {}
        for (algo, q), cur in acc.items():
            best, ref = _measure(algo, q, text, pattern,
                                 spec.repetitions, spec.trials, cell)
            counts[(algo, q)] = len(ref.occurrences)
            cur[0] += best
            cur[1] = _add_stats(cur[1], ref.stats)
            cur[2] += len(ref.occurrences)
        if len(set(counts.values())) > 1:
            raise BenchmarkError(
                f"occurrence counts disagree in cell {cell}: {counts}")
    return [ReportRow(algo=algo, q=q, m=m, n=len(text), occ=occ,
                      reps=spec.repetitions, total_ms=secs * 1e3,
                      stats=stats, seed=spec.seed)
            for (algo, q), (secs, stats, occ) in acc.items()]


def run_benchmark(spec: BenchSpec) -> list[ReportRow]:
    """Execute every cell of ``spec`` and return one row per cell."""
    _validate(spec)
    rng = random.Random(spec.seed)
    rows: list[ReportRow] = []
    src = spec.source
    if isinstance(src, EmbedSource):
        for m in spec.pattern_lengths:
            for occ in src.occs:
                gen_seed = rng.getrandbits(63)
                corpus = random_text_with_occurrences(
                    CorpusSpec(n=src.n, sigma=src.sigma, m=m, occ=occ,
                               seed=gen_seed))
                label = f"embed(n={src.n},sigma={src.sigma},occ={occ})"
                rows.extend(_measure_cell(spec, label, corpus.text, m,
                                          [corpus.pattern]))
        return rows
    if isinstance(src, FileSource):
        text = load_text(src.path, strip_newlines=src.strip_newlines)
        label = f"file({src.path})"
    elif isinstance(src, FibonacciSource):
        text = fibonacci_string(src.k)
        label = f"fib({src.k})"
    else:
        raise ConfigurationError(f"unknown corpus source {src!r}")
    for m in spec.pattern_lengths:
        samp_seed = rng.getrandbits(63)
        patterns = sample_patterns(text, m, spec.patterns_per_length, samp_seed)
        rows.extend(_measure_cell(spec, label, text, m, patterns))
    return rows


def _row_values(row: ReportRow) -> list:
    s = row.stats
    return [row.algo, row.q, row.m, row.n, row.occ, row.reps, row.total_ms,
            s.char_comparisons, s.first_char_checks, s.hashed_char_reads,
            s.hq_shifts, s.dist_shifts, s.kmp_shifts, row.seed]


def emit_report(rows: list[ReportRow], format: str = "csv") -> str:
    """Serialize rows as CSV (default) or a markdown table."""
    if not rows:
        raise ValueError("no rows to report")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_row_values(row))
        return buf.getvalue()
    if format == "markdown":
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(str(v) for v in _row_values(row))
                         + " |")
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {format!r}")
