import io
import os
import subprocess
import sys

import pytest

import qgramsearch
from qgramsearch import ALGORITHMS, naive_search
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


def test_bench_source_required(capsys):
    code, _, err = run(capsys, "bench", "--algos", "kmp")
    assert code == 2
    assert "exactly one" in err


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
      "--patterns-per-length", "5"), "--patterns-per-length"),
    (("--fib", "12", "--patterns-per-length", "0"), "patterns_per_length"),
])
def test_bench_repeated_or_unused_value_exits_2(capsys, argv, named):
    code, out, err = run(capsys, "bench", *argv, "--algos", "kmp",
                         "--reps", "1", "--trials", "1")
    assert (code, out) == (2, "")
    assert named in err


def test_bench_bad_q_list_exits_2(capsys):
    code, _, err = run(capsys, "bench", "--fib", "10", "--q", "3,x")
    assert code == 2


def test_parser_exposes_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("search", "gen", "bench"):
        assert name in text
