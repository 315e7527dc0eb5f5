import io
import os
import subprocess
import sys

import pytest

import qgramsearch
from qgramsearch import ALGORITHMS, ConfigurationError, naive_search
from qgramsearch.cli import build_parser, main, run_search_command

TEXT = "abbaabbaababbabbaaabaabaabbaaa"
PATTERN = "abaabbaaa"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("algo", ["naive", "kmp", "hashq", "distq", "ldistq"])
def test_search_finds_golden_occurrence(capsys, algo):
    code, out, err = run(capsys, "search", "--algo", algo, "--q", "3",
                         "--text", TEXT, "--pattern", PATTERN)
    assert (code, out) == (0, "22\n")


def test_main_takes_any_iterable_of_arguments(capsys):
    code = main(iter(["search", "--text", TEXT, "--pattern", PATTERN]))
    assert (code, capsys.readouterr().out) == (0, "22\n")


def test_search_zero_based(capsys):
    code, out, _ = run(capsys, "search", "--zero-based",
                       "--text", TEXT, "--pattern", PATTERN)
    assert (code, out) == (0, "21\n")


def test_search_no_match_exits_1(capsys):
    code, out, _ = run(capsys, "search", "--text", "aaaa", "--pattern", "ab")
    assert (code, out) == (1, "")


def test_search_overlapping_positions(capsys):
    code, out, _ = run(capsys, "search", "--algo", "kmp",
                       "--text", "aaaa", "--pattern", "aa")
    assert (code, out) == (0, "1\n2\n3\n")


def test_search_q_clamp_warns(capsys):
    code, out, err = run(capsys, "search", "--algo", "distq", "--q", "30",
                         "--text", TEXT, "--pattern", PATTERN)
    assert (code, out) == (0, "22\n")
    assert "clamped" in err


def test_search_naive_never_warns_about_q(capsys):
    _, _, err = run(capsys, "search", "--algo", "naive", "--q", "30",
                    "--text", TEXT, "--pattern", PATTERN)
    assert err == ""


def test_search_files(capsys, tmp_path):
    tf = tmp_path / "t.bin"
    pf = tmp_path / "p.bin"
    tf.write_bytes(TEXT.encode())
    pf.write_bytes(PATTERN.encode())
    code, out, _ = run(capsys, "search", "--text-file", str(tf),
                       "--pattern-file", str(pf))
    assert (code, out) == (0, "22\n")


def test_search_strip_newlines(capsys, tmp_path):
    tf = tmp_path / "t.txt"
    chunked = "\n".join(TEXT[i:i + 2] for i in range(0, len(TEXT), 2)) + "\n"
    tf.write_bytes(chunked.encode())
    pf = tmp_path / "p.txt"
    pf.write_bytes(PATTERN.encode())
    code, out, _ = run(capsys, "search", "--strip-newlines",
                       "--text-file", str(tf), "--pattern-file", str(pf))
    assert (code, out) == (0, "22\n")


def test_search_strip_newlines_with_literals_exits_2(capsys):
    # only a file can hold the LF bytes the flag drops
    code, out, err = run(capsys, "search", "--strip-newlines",
                         "--text", "a\nb", "--pattern", "ab")
    assert (code, out) == (2, "")
    assert err == "error: --strip-newlines applies only with --text-file " \
                  "/ --pattern-file\n"


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_search_empty_pattern_exits_2(capsys, algo):
    code, out, err = run(capsys, "search", "--algo", algo,
                         "--text", TEXT, "--pattern", "")
    assert (code, out, err) == (2, "", "error: pattern must be non-empty\n")


def test_search_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "search", "--text-file", "/nonexistent/x",
                       "--pattern", "a")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag, other", [("--text-file", "--pattern"),
                                         ("--pattern-file", "--text")])
def test_search_directory_operand_exits_2(capsys, tmp_path, flag, other):
    code, out, err = run(capsys, "search", flag, str(tmp_path), other, "a")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err


@pytest.mark.parametrize("data, flags", [(b"", ()),
                                         (b"\n\n", ("--strip-newlines",))])
def test_search_empty_pattern_file_exits_2(capsys, tmp_path, data, flags):
    pf = tmp_path / "p.bin"
    pf.write_bytes(data)
    code, out, err = run(capsys, "search", *flags, "--text", TEXT,
                         "--pattern-file", str(pf))
    assert (code, out, err) == (2, "", "error: pattern must be non-empty\n")


def test_search_non_latin1_literal_exits_2(capsys):
    code, _, err = run(capsys, "search", "--text", "aΔb", "--pattern", "a")
    assert code == 2
    assert "code point" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "search", "--text", "abc")[0] == 2          # no pattern
    assert run(capsys, "search", "--algo", "nope", "--text", "a",
               "--pattern", "a")[0] == 2                           # bad choice
    assert run(capsys)[0] == 2                                     # no command


def test_run_search_command_streams():
    out, err = io.StringIO(), io.StringIO()
    code = run_search_command(TEXT.encode(), PATTERN.encode(), "distq", 3,
                              out=out, err=err)
    assert (code, out.getvalue(), err.getvalue()) == (0, "22\n", "")


def test_run_search_command_rejects_unknown_algorithm():
    with pytest.raises(ConfigurationError, match="unknown algorithm 'bogus'"):
        run_search_command(b"abc", b"a", "bogus", 3)


def test_gen_fib(capsys, tmp_path):
    path = tmp_path / "fib.txt"
    code, _, err = run(capsys, "gen", "fib", "--k", "5", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == b"abaab"
    assert "5 bytes" in err


def test_gen_fib_bad_order_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "fib", "--k", "0",
                       "--out", str(tmp_path / "x"))
    assert code == 2


def test_gen_occ_exact_count(capsys, tmp_path):
    tp, pp = tmp_path / "t.bin", tmp_path / "p.bin"
    code, _, err = run(capsys, "gen", "occ", "--n", "3000", "--sigma", "4",
                       "--m", "8", "--occ", "7", "--seed", "11",
                       "--out", str(tp), "--pattern-out", str(pp))
    assert code == 0
    text, pattern = tp.read_bytes(), pp.read_bytes()
    assert (len(text), len(pattern)) == (3000, 8)
    assert len(naive_search(text, pattern)) == 7
    assert "7 occurrences" in err


def test_gen_occ_impossible_spec_exits_1(capsys, tmp_path):
    # occ * m == n forces the text "abababab", which holds the drawn
    # pattern "abab" 3 times, not 2: no corpus meets the spec
    tp, pp = tmp_path / "t.bin", tmp_path / "p.bin"
    code, out, err = run(capsys, "gen", "occ", "--n", "8", "--sigma", "2",
                         "--m", "4", "--occ", "2", "--seed", "3",
                         "--out", str(tp), "--pattern-out", str(pp))
    assert (code, out) == (1, "")
    assert err.startswith("error: embedding kept creating stray occurrences")
    assert not tp.exists() and not pp.exists()


@pytest.mark.parametrize("strip, n", [(False, 60), (True, 55)])
def test_bench_text_file(capsys, tmp_path, strip, n):
    tf = tmp_path / "t.txt"
    data = b"abaababaab\n" * 5 + b"ababa"  # 60 bytes, 5 of them LF
    tf.write_bytes(data)
    flags = ("--strip-newlines",) if strip else ()
    code, out, _ = run(capsys, "bench", "--text-file", str(tf),
                       "--algos", "kmp,distq", "--m", "6", "--reps", "1",
                       "--trials", "1", *flags)
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows and {row.split(",")[3] for row in rows} == {str(n)}


def test_bench_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "bench", "--fib", "12", "--algos", "kmp,distq",
                       "--m", "6", "--patterns-per-length", "2",
                       "--reps", "1", "--trials", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("algo,q,m,n,occ,reps,total_ms")
    assert len(lines) == 3
    assert lines[1].startswith("kmp,0,6,")
    assert lines[2].startswith("distq,3,6,")


def test_bench_markdown_to_file(capsys, tmp_path):
    path = tmp_path / "r.md"
    code, out, err = run(capsys, "bench", "--embed-n", "1500",
                         "--embed-sigma", "4", "--embed-occ", "2",
                         "--embed-occ", "5", "--algos", "naive,ldistq",
                         "--m", "8", "--reps", "1", "--trials", "1",
                         "--format", "markdown", "--out", str(path))
    assert (code, out) == (0, "")
    report = path.read_text()
    assert report.startswith("| algo |")
    assert report.count("\n| ldistq |") == 2  # one row per occ cell
    assert "wrote report" in err


def test_bench_comma_lists_run_one_corpus_each(capsys):
    code, out, _ = run(capsys, "bench", "--fib", "10,12", "--algos", "kmp",
                       "--m", "6", "--reps", "1", "--trials", "1")
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == \
        ["55", "144"]
    code, out, _ = run(capsys, "bench", "--embed-n", "1500",
                       "--embed-sigma", "4,95", "--embed-occ", "3",
                       "--algos", "kmp", "--reps", "1", "--trials", "1")
    assert code == 0
    assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["3", "3"]


@pytest.mark.parametrize("source", ["fib", "file"])
@pytest.mark.parametrize("flag", ["--embed-occ", "--embed-sigma"])
def test_bench_embed_flags_without_embed_n_exit_2(capsys, tmp_path, source,
                                                   flag):
    tf = tmp_path / "t.bin"
    tf.write_bytes(TEXT.encode())
    argv = ("--fib", "12") if source == "fib" else ("--text-file", str(tf))
    code, out, err = run(capsys, "bench", *argv, flag, "4",
                         "--algos", "kmp", "--reps", "1", "--trials", "1")
    assert (code, out) == (2, "")
    assert "--embed-n" in err


@pytest.mark.parametrize("argv", [("--fib", "12"),
                                  ("--embed-n", "1500", "--embed-sigma", "4")])
def test_bench_strip_newlines_without_text_file_exits_2(capsys, argv):
    code, out, err = run(capsys, "bench", *argv, "--strip-newlines",
                         "--algos", "kmp", "--reps", "1", "--trials", "1")
    assert (code, out) == (2, "")
    assert "--text-file" in err


def test_search_reader_closing_early_ends_output(tmp_path):
    tf = tmp_path / "t.bin"
    tf.write_bytes(b"a" * 200_000)  # far more output than a pipe buffers
    src = os.path.dirname(os.path.dirname(qgramsearch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qgramsearch.cli", "search", "--text-file",
         str(tf), "--pattern", "a", "--q", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("zero_based", [False, True])
def test_search_output_spans_several_blocks(capsys, tmp_path, zero_based):
    # positions are written in blocks; the bytes must read as one per line
    text = qgramsearch.fibonacci_string(24)
    tf = tmp_path / "fib.bin"
    tf.write_bytes(text)
    found = naive_search(text, b"aba")
    assert len(found) > 2 * 4096
    base = 0 if zero_based else 1
    flags = ["--zero-based"] if zero_based else []
    code, out, err = run(capsys, "search", "--text-file", str(tf),
                         "--pattern", "aba", *flags)
    assert (code, err) == (0, "")
    assert out == "\n".join(str(pos - 1 + base) for pos in found) + "\n"


def test_bench_source_required(capsys):
    code, _, err = run(capsys, "bench", "--algos", "kmp")
    assert code == 2
    assert "one of the arguments --text-file --fib --embed-n is required" \
        in err


def test_bench_embed_needs_sigma(capsys):
    code, _, err = run(capsys, "bench", "--embed-n", "100")
    assert code == 2


def test_bench_duplicate_algo_exits_2(capsys):
    # a repeated name would share one row key and double its figures
    code, out, err = run(capsys, "bench", "--fib", "12", "--m", "8",
                         "--algos", "kmp,kmp", "--reps", "1", "--trials", "1",
                         "--patterns-per-length", "1")
    assert (code, out) == (2, "")
    assert "'kmp'" in err


@pytest.mark.parametrize("argv, named", [
    (("--fib", "12", "--m", "8,8"), "pattern length 8"),
    (("--fib", "12,12"), "k=12"),
    (("--embed-n", "2000", "--embed-sigma", "4,4", "--embed-occ", "3"),
     "sigma=4"),
    (("--embed-n", "2000", "--embed-sigma", "4", "--embed-occ", "3",
      "--embed-occ", "3"), "occ value 3"),
    (("--embed-n", "2000", "--embed-sigma", "4", "--embed-occ", "3",
      "--patterns-per-length", "5"), "patterns_per_length=5"),
    (("--fib", "12", "--patterns-per-length", "0"), "patterns_per_length"),
    (("--fib", "10", "--m", ","), "m list is empty"),
])
def test_bench_repeated_or_unused_value_exits_2(capsys, argv, named):
    code, out, err = run(capsys, "bench", *argv, "--algos", "kmp",
                         "--reps", "1", "--trials", "1")
    assert (code, out) == (2, "")
    assert named in err


def test_bench_bad_q_list_exits_2(capsys):
    code, _, err = run(capsys, "bench", "--fib", "10", "--q", "3,x")
    assert code == 2


def test_parser_exposes_all_subcommands(capsys):
    text = build_parser().format_help()
    assert run(capsys, "--help") == (0, text, "")
    assert "{search,gen,bench}" in text
    for line in ("find a pattern in a text", "generate a corpus file",
                 "run a benchmark and emit a report"):
        assert line in text


@pytest.mark.parametrize("words", [("search",), ("gen",), ("gen", "fib"),
                                   ("gen", "occ"), ("bench",)],
                         ids="-".join)
def test_subcommand_help_matches_the_full_parser(capsys, words):
    # main builds only the invoked subcommand's arguments; none may be lost
    with pytest.raises(SystemExit):
        build_parser().parse_args([*words, "--help"])
    full = capsys.readouterr().out
    assert full.startswith("usage: qgramsearch " + " ".join(words))
    assert run(capsys, *words, "--help") == (0, full, "")


def test_an_unknown_first_word_gets_the_full_parsers_error(capsys):
    argv = ["--foo", "search", "--text", "a", "--pattern", "b"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    full = capsys.readouterr().err
    assert full.endswith("error: unrecognized arguments: --foo\n")
    assert run(capsys, *argv) == (2, "", full)


# main's help and usage texts at COLUMNS=80, byte for byte, as the parser
# printed them when it built every subcommand's arguments in cli.py; the
# tests above show only that the partial and the full parser agree
HELP_TEXTS = {
    "--help": (0, """\
usage: qgramsearch [-h] {search,gen,bench} ...

Byte-level exact string matching with q-gram distance shift tables.

positional arguments:
  {search,gen,bench}
    search            find a pattern in a text
    gen               generate a corpus file
    bench             run a benchmark and emit a report

options:
  -h, --help          show this help message and exit
""", ""),
    "search --help": (0, """\
usage: qgramsearch search [-h] [--algo {naive,kmp,hashq,distq,ldistq}] [--q Q]
                          (--pattern PATTERN | --pattern-file PATTERN_FILE)
                          (--text TEXT | --text-file TEXT_FILE)
                          [--strip-newlines] [--zero-based]

options:
  -h, --help            show this help message and exit
  --algo {naive,kmp,hashq,distq,ldistq}
  --q Q                 q-gram size (clamped to min(q, m, 8))
  --pattern PATTERN     pattern as a latin-1 literal
  --pattern-file PATTERN_FILE
                        file containing the pattern bytes
  --text TEXT           text as a latin-1 literal
  --text-file TEXT_FILE
                        file containing the text bytes
  --strip-newlines      drop LF bytes when reading files
  --zero-based          print 0-based positions instead of 1-based
""", ""),
    "gen --help": (0, """\
usage: qgramsearch gen [-h] {fib,occ} ...

positional arguments:
  {fib,occ}
    fib       Fibonacci string
    occ       random text with an exact number of pattern occurrences

options:
  -h, --help  show this help message and exit
""", ""),
    "gen fib --help": (0, """\
usage: qgramsearch gen fib [-h] --k K --out OUT

options:
  -h, --help  show this help message and exit
  --k K       order, 1..40
  --out OUT
""", ""),
    "gen occ --help": (0, """\
usage: qgramsearch gen occ [-h] --n N --sigma SIGMA --m M --occ OCC
                           [--seed SEED] --out OUT --pattern-out PATTERN_OUT

options:
  -h, --help            show this help message and exit
  --n N
  --sigma SIGMA
  --m M
  --occ OCC
  --seed SEED
  --out OUT
  --pattern-out PATTERN_OUT
""", ""),
    "bench --help": (0, """\
usage: qgramsearch bench [-h]
                         (--text-file TEXT_FILE | --fib FIB | --embed-n EMBED_N)
                         [--embed-sigma EMBED_SIGMA] [--embed-occ EMBED_OCC]
                         [--strip-newlines] [--algos ALGOS] [--q Q] [--m M]
                         [--patterns-per-length PATTERNS_PER_LENGTH]
                         [--reps REPS] [--trials TRIALS] [--seed SEED]
                         [--format {csv,markdown}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --text-file TEXT_FILE
                        benchmark corpus from a file
  --fib FIB             comma list of Fibonacci orders K, one corpus each
  --embed-n EMBED_N     embedded-occurrence corpus of this length
  --embed-sigma EMBED_SIGMA
                        comma list of alphabet sizes for --embed-n, one corpus
                        each
  --embed-occ EMBED_OCC
                        occurrence count for --embed-n (repeatable)
  --strip-newlines      drop LF bytes from --text-file
  --algos ALGOS         comma list of algorithms, or 'all'
  --q Q                 comma list of q values
  --m M                 comma list of pattern lengths
  --patterns-per-length PATTERNS_PER_LENGTH
                        patterns sampled per length from --fib or --text-file
                        (default 3)
  --reps REPS           searches per timed trial
  --trials TRIALS       trials; wall time is the best of them
  --seed SEED
  --format {csv,markdown}
  --out OUT             output path, '-' for stdout
""", ""),
    "frob": (2, "", """\
usage: qgramsearch [-h] {search,gen,bench} ...
qgramsearch: error: argument command: invalid choice: 'frob' (choose from 'search', 'gen', 'bench')
"""),
    "search --text a --pattern a extra": (2, "", """\
usage: qgramsearch [-h] {search,gen,bench} ...
qgramsearch: error: unrecognized arguments: extra
"""),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording as Python 3.11 prints it")
@pytest.mark.parametrize("argv", list(HELP_TEXTS))
def test_help_and_usage_texts_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == HELP_TEXTS[argv]
