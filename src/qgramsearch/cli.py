"""Command line interface.

Subcommands:

* ``search`` - run one matcher, print 1-based positions one per line.
  Exit status: 0 when at least one occurrence was found, 1 when none,
  2 on usage or configuration problems.
* ``gen``    - write a corpus to disk (``fib`` or ``occ``).
* ``bench``  - run a benchmark spec and emit CSV or markdown.

Literal --text/--pattern arguments are encoded latin-1 so each character
maps to the byte of its code point.  A q larger than the pattern (or 8) is
clamped with a warning; everything else invalid is a hard error.  Each
subcommand imports the modules only it uses: a search loads no harness.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigurationError, Error
from .hashing import MAX_Q, clamp_q
from .matchers import ALGORITHMS, MATCHERS

_BLOCK = 4096  # positions per write in run_search_command


def run_search_command(text: bytes, pattern: bytes, algorithm: str, q: int,
                       zero_based: bool = False, out=None, err=None) -> int:
    """Search ``text`` for ``pattern`` and print the positions found.

    Returns the CLI exit status (0 = found, 1 = none).  ``q`` is clamped to
    min(q, m, 8) with a note on ``err``; matchers that take no q ignore it.
    A reader that closes ``out`` early just ends the output.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if not pattern:
        raise ConfigurationError("pattern must be non-empty")
    if algorithm not in MATCHERS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    run, takes_q = MATCHERS[algorithm]
    m = len(pattern)
    q_eff = clamp_q(q, m)
    if q_eff != q and takes_q:
        print(f"warning: q={q} clamped to {q_eff} (pattern length {m}, "
              f"max {MAX_Q})", file=err)
    occurrences = run(text, pattern, q_eff).occurrences
    try:
        # blocks of at most _BLOCK lines: one format and one write each,
        # bounded memory
        for start in range(0, len(occurrences), _BLOCK):
            block = occurrences[start:start + _BLOCK]
            if zero_based:
                block = [pos - 1 for pos in block]
            out.write("%d\n" * len(block) % tuple(block))
        out.flush()
    except BrokenPipeError:
        # e.g. ``| head -1``; point the descriptor at devnull so the flush
        # at interpreter exit cannot fail on the unsent rest again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return 0 if occurrences else 1


def _encode_literal(value: str, what: str) -> bytes:
    try:
        return value.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise ConfigurationError(
            f"{what} contains characters above code point 255: {exc}") from exc


def _load_operand(literal, path, strip_newlines: bool, what: str) -> bytes:
    if literal is not None:
        return _encode_literal(literal, what)
    from .corpus import load_text
    return load_text(path, strip_newlines=strip_newlines)


def _cmd_search(args) -> int:
    files = (args.text_file, args.pattern_file)
    if args.strip_newlines and files == (None, None):
        raise ConfigurationError(
            "--strip-newlines applies only with --text-file / --pattern-file")
    text = _load_operand(args.text, args.text_file, args.strip_newlines, "text")
    pattern = _load_operand(args.pattern, args.pattern_file,
                            args.strip_newlines, "pattern")
    return run_search_command(text, pattern, args.algo, args.q,
                              zero_based=args.zero_based)


def _cmd_gen_fib(args) -> int:
    from .corpus import fibonacci_string
    data = fibonacci_string(args.k)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(data)} bytes to {args.out}", file=sys.stderr)
    return 0


def _cmd_gen_occ(args) -> int:
    from .corpus import CorpusSpec, random_text_with_occurrences
    corpus = random_text_with_occurrences(
        CorpusSpec(n=args.n, sigma=args.sigma, m=args.m, occ=args.occ,
                   seed=args.seed))
    with open(args.out, "wb") as fh:
        fh.write(corpus.text)
    with open(args.pattern_out, "wb") as fh:
        fh.write(corpus.pattern)
    print(f"wrote {len(corpus.text)} bytes to {args.out}; pattern "
          f"({len(corpus.pattern)} bytes, {corpus.occ} occurrences) to "
          f"{args.pattern_out}", file=sys.stderr)
    return 0


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ConfigurationError(f"{what} list is empty")
    return values


def _cmd_bench(args) -> int:
    from .bench import BenchSpec, EmbedSource, FibonacciSource, \
        FileSource, _reject_repeats, emit_report, run_benchmark
    given = [s for s in (args.text_file, args.fib, args.embed_n)
             if s is not None]
    if len(given) != 1:
        raise ConfigurationError(
            "exactly one of --text-file / --fib / --embed-n is required")
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
    elif args.embed_n is not None:
        raise ConfigurationError(
            "--patterns-per-length applies only with --fib / --text-file"
            " (an --embed-n corpus has one pattern)")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgramsearch",
        description="Byte-level exact string matching with q-gram distance "
                    "shift tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="find a pattern in a text")
    p_search.add_argument("--algo", choices=ALGORITHMS, default="distq")
    p_search.add_argument("--q", type=int, default=3,
                          help="q-gram size (clamped to min(q, m, 8))")
    grp = p_search.add_mutually_exclusive_group(required=True)
    grp.add_argument("--pattern", help="pattern as a latin-1 literal")
    grp.add_argument("--pattern-file", help="file containing the pattern bytes")
    grp = p_search.add_mutually_exclusive_group(required=True)
    grp.add_argument("--text", help="text as a latin-1 literal")
    grp.add_argument("--text-file", help="file containing the text bytes")
    p_search.add_argument("--strip-newlines", action="store_true",
                          help="drop LF bytes when reading files")
    p_search.add_argument("--zero-based", action="store_true",
                          help="print 0-based positions instead of 1-based")
    p_search.set_defaults(func=_cmd_search)

    p_gen = sub.add_parser("gen", help="generate a corpus file")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    p_fib = gen_sub.add_parser("fib", help="Fibonacci string")
    p_fib.add_argument("--k", type=int, required=True, help="order, 1..40")
    p_fib.add_argument("--out", required=True)
    p_fib.set_defaults(func=_cmd_gen_fib)
    p_occ = gen_sub.add_parser(
        "occ", help="random text with an exact number of pattern occurrences")
    p_occ.add_argument("--n", type=int, required=True)
    p_occ.add_argument("--sigma", type=int, required=True)
    p_occ.add_argument("--m", type=int, required=True)
    p_occ.add_argument("--occ", type=int, required=True)
    p_occ.add_argument("--seed", type=int, default=0)
    p_occ.add_argument("--out", required=True)
    p_occ.add_argument("--pattern-out", required=True)
    p_occ.set_defaults(func=_cmd_gen_occ)

    p_bench = sub.add_parser("bench", help="run a benchmark and emit a report")
    p_bench.add_argument("--text-file", help="benchmark corpus from a file")
    p_bench.add_argument("--fib",
                         help="comma list of Fibonacci orders K, one corpus each")
    p_bench.add_argument("--embed-n", type=int,
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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Error as exc:  # generation / benchmark hard failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
