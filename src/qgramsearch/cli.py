"""Command line interface.

Subcommands:

* ``search`` - run one matcher, print 1-based positions one per line.
  Exit status: 0 when at least one occurrence was found, 1 when none,
  2 on usage or configuration problems.
* ``gen``    - write a corpus to disk (``fib`` or ``occ``).
* ``bench``  - run a benchmark spec and emit CSV or markdown.

Literal --text/--pattern arguments are encoded latin-1 so each character
maps to the byte of its code point.  A q larger than the pattern (or 8) is
clamped with a warning; everything else invalid is a hard error.  The
``gen`` and ``bench`` arguments and handlers live next to the code they
drive, in corpus.py and bench.py, and the parser gets the arguments of
only the subcommand that runs: a search loads neither the corpus module
nor the harness, and builds no ``gen`` or ``bench`` arguments.
"""

import argparse
import os
import sys

from .errors import ConfigurationError, Error, load_text
from .matchers import ALGORITHMS, MATCHERS, MAX_Q, clamp_q

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


def _search_arguments(p_search: argparse.ArgumentParser) -> None:
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


# subcommand -> its help line
_SUBCOMMANDS = {
    "search": "find a pattern in a text",
    "gen": "generate a corpus file",
    "bench": "run a benchmark and emit a report",
}


def _add_arguments(name: str, subparser: argparse.ArgumentParser) -> None:
    """Build subcommand ``name``'s arguments.  Those of gen and bench live
    with the code they run, in corpus.py and bench.py, so only building them
    imports that module."""
    if name == "gen":
        from .corpus import _gen_arguments as add_arguments
    elif name == "bench":
        from .bench import _bench_arguments as add_arguments
    else:
        add_arguments = _search_arguments
    add_arguments(subparser)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser.  Every subcommand is listed with its help, but only
    ``command``'s arguments are built, or all of them when it is None."""
    parser = argparse.ArgumentParser(
        prog="qgramsearch",
        description="Byte-level exact string matching with q-gram distance "
                    "shift tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            _add_arguments(name, subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads the subcommand's arguments only after its name; with
    # any other first word (-h, an unknown option) build them all, so that
    # help and error texts stay those of the full parser
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(command)
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
