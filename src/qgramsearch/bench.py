"""Benchmark harness.

A run is described by a :class:`BenchSpec`, checked when it is built: one
corpus source, the algorithms to race, q values, pattern lengths, and the
measurement protocol (``repetitions`` timed searches per trial, wall time
taken as the best of ``trials`` trials).  Preprocessing is re-run inside
every repetition, so a row's time is the full cost of preparing and
running that matcher.

Counters must be identical across trials and all algorithms must agree on
the occurrence count of every pattern; either violation raises
:class:`~qgramsearch.errors.BenchmarkError` naming the cell.  Rows are
deterministic in everything except elapsed time for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import random
import sys
from time import perf_counter

from .corpus import CorpusSpec, _check_fib_order, alphabet_bytes, \
    fibonacci_string, random_text_with_occurrences, sample_patterns
from .errors import BenchmarkError, ConfigurationError, _Record, \
    _check_load, _require_ints, load_text
from .matchers import ALGORITHMS, MATCHERS, SearchStats, clamp_q

CSV_COLUMNS = ("algo", "q", "m", "n", "occ", "reps", "total_ms",
               "char_cmp", "first_char_checks", "hash_char_reads",
               "hq_shifts", "dist_shifts", "kmp_shifts", "seed")


def _reject_repeats(values, what: str) -> None:
    """Raise on a value listed twice: no report column tells its rows apart
    (and rows keyed on (algo, q) would add up both runs' figures)."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigurationError(f"{what} {value!r} is listed twice")


def _require_tuple(what: str, value) -> None:
    """Raise on a setting that is not a tuple, such as a lone str or int."""
    if not isinstance(value, tuple):
        raise ConfigurationError(f"{what} must be a tuple, got {value!r}")


# each source, like a BenchSpec, rejects a bad field on construction
class FileSource(_Record):
    def __init__(self, path: str, strip_newlines: bool = False):
        _check_load(path, strip_newlines)  # the checks load_text makes
        self.__dict__.update(path=path, strip_newlines=strip_newlines)


class FibonacciSource(_Record):
    def __init__(self, k: int):
        _check_fib_order(k)
        self.__dict__.update(k=k)


class EmbedSource(_Record):
    """Random texts with a known number of embedded pattern occurrences."""

    def __init__(self, n: int, sigma: int, occs: tuple[int, ...]):
        _require_ints("n", n, least=1)
        alphabet_bytes(sigma)  # the one check of sigma
        _require_tuple("occs", occs)
        if not occs:
            raise ConfigurationError(
                "embed source needs at least one occ value")
        _require_ints("occ value", *occs, least=0)
        _reject_repeats(occs, "occ value")
        self.__dict__.update(n=n, sigma=sigma, occs=occs)


class BenchSpec(_Record):
    """One benchmark run, checked on construction: every rejected setting
    raises :class:`~qgramsearch.errors.ConfigurationError`."""

    def __init__(self, source: FileSource | FibonacciSource | EmbedSource,
                 algorithms: tuple[str, ...] = ALGORITHMS,
                 qs: tuple[int, ...] = (3,),
                 pattern_lengths: tuple[int, ...] = (8,),
                 patterns_per_length: int = 1, repetitions: int = 1,
                 trials: int = 1, seed: int = 0):
        if not isinstance(source, (FileSource, FibonacciSource, EmbedSource)):
            raise ConfigurationError(f"unknown corpus source {source!r}")
        _require_tuple("algorithms", algorithms)
        if not algorithms:
            raise ConfigurationError("algorithm list is empty")
        for name in algorithms:
            if name not in MATCHERS:
                raise ConfigurationError(f"unknown algorithm {name!r}")
        _reject_repeats(algorithms, "algorithm")
        _require_tuple("q values", qs)
        _require_ints("q value", *qs)
        if not qs or any(q < 1 for q in qs):
            raise ConfigurationError(f"q values must be >= 1, got {qs}")
        _require_tuple("pattern lengths", pattern_lengths)
        _require_ints("pattern length", *pattern_lengths)
        if not pattern_lengths or any(m < 1 for m in pattern_lengths):
            raise ConfigurationError(
                f"pattern lengths must be >= 1, got {pattern_lengths}")
        _reject_repeats(pattern_lengths, "pattern length")
        _require_ints("patterns_per_length", patterns_per_length, least=1)
        if isinstance(source, EmbedSource) and patterns_per_length != 1:
            raise ConfigurationError(
                "an embed source has exactly one pattern per corpus, got "
                f"patterns_per_length={patterns_per_length}")
        if isinstance(source, EmbedSource):  # CorpusSpec's checks, up front
            CorpusSpec(n=source.n, sigma=source.sigma, m=max(pattern_lengths),
                       occ=max(source.occs), seed=0)
        _require_ints("repetitions", repetitions, least=1)
        _require_ints("trials", trials, least=1)
        _require_ints("seed", seed)
        self.__dict__.update(
            source=source, algorithms=algorithms, qs=qs,
            pattern_lengths=pattern_lengths,
            patterns_per_length=patterns_per_length, repetitions=repetitions,
            trials=trials, seed=seed)


class ReportRow(_Record):
    """One measurement cell: an algorithm on one corpus at one (q, m).

    Time, counters and occ aggregate over the patterns of the cell; q is 0
    on rows of matchers that take no q.
    """

    def __init__(self, algo: str, q: int, m: int, n: int, occ: int,
                 reps: int, total_ms: float, stats: SearchStats, seed: int):
        self.__dict__.update(algo=algo, q=q, m=m, n=n, occ=occ, reps=reps,
                             total_ms=total_ms, stats=stats, seed=seed)


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
            cur[1] = SearchStats(**{name: value + getattr(ref.stats, name)
                                    for name, value in vars(cur[1]).items()})
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
    else:  # a BenchSpec holds no other source
        text = fibonacci_string(src.k)
        label = f"fib({src.k})"
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
        raise ConfigurationError("no rows to report")
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


# --- ``qgramsearch bench``: cli.build_parser imports its arguments from here

def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"{what} list is empty")
    return values


def _cmd_bench(args) -> int:
    if args.embed_n is None and (args.embed_sigma is not None
                                 or args.embed_occ is not None):
        raise ConfigurationError(
            "--embed-sigma / --embed-occ apply only with --embed-n")
    if args.strip_newlines and args.text_file is None:
        raise ConfigurationError(
            "--strip-newlines applies only with --text-file")
    per_length = args.patterns_per_length
    if per_length is None:
        per_length = 1 if args.embed_n is not None else 3
    if args.text_file is not None:
        sources = [FileSource(args.text_file,
                              strip_newlines=args.strip_newlines)]
    elif args.fib is not None:
        sources = [FibonacciSource(k) for k in _csv_ints(args.fib, "fib")]
    else:
        if args.embed_sigma is None:
            raise ConfigurationError("--embed-n requires --embed-sigma")
        occs = tuple(args.embed_occ) if args.embed_occ else (0,)
        sources = [EmbedSource(n=args.embed_n, sigma=sigma, occs=occs)
                   for sigma in _csv_ints(args.embed_sigma, "embed-sigma")]
    _reject_repeats(sources, "corpus")
    algos = tuple(ALGORITHMS) if args.algos == "all" else \
        tuple(part for part in args.algos.split(",") if part)
    qs, ms = _csv_ints(args.q, "q"), _csv_ints(args.m, "m")
    rows = []
    for source in sources:
        rows.extend(run_benchmark(BenchSpec(
            source=source,
            algorithms=algos,
            qs=qs,
            pattern_lengths=ms,
            patterns_per_length=per_length,
            repetitions=args.reps,
            trials=args.trials,
            seed=args.seed,
        )))
    report = emit_report(rows, format=args.format)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote report to {args.out}", file=sys.stderr)
    return 0


def _bench_arguments(p_bench) -> None:
    """Add the ``bench`` subcommand's arguments to its parser ``p_bench``."""
    grp = p_bench.add_mutually_exclusive_group(required=True)
    grp.add_argument("--text-file", help="benchmark corpus from a file")
    grp.add_argument("--fib",
                     help="comma list of Fibonacci orders K, one corpus each")
    grp.add_argument("--embed-n", type=int,
                     help="embedded-occurrence corpus of this length")
    p_bench.add_argument("--embed-sigma",
                         help="comma list of alphabet sizes for --embed-n, "
                              "one corpus each")
    p_bench.add_argument("--embed-occ", type=int, action="append",
                         help="occurrence count for --embed-n (repeatable)")
    p_bench.add_argument("--strip-newlines", action="store_true",
                         help="drop LF bytes from --text-file")
    p_bench.add_argument("--algos", default="all",
                         help="comma list of algorithms, or 'all'")
    p_bench.add_argument("--q", default="3", help="comma list of q values")
    p_bench.add_argument("--m", default="8",
                         help="comma list of pattern lengths")
    p_bench.add_argument("--patterns-per-length", type=int,
                         help="patterns sampled per length from --fib or "
                              "--text-file (default 3)")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="searches per timed trial")
    p_bench.add_argument("--trials", type=int, default=3,
                         help="trials; wall time is the best of them")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--format", choices=("csv", "markdown"),
                         default="csv")
    p_bench.add_argument("--out", default="-",
                         help="output path, '-' for stdout")
    p_bench.set_defaults(func=_cmd_bench)
