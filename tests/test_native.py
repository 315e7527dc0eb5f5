"""The compiled engine: its build, its fallback, and its input checks.

Its outcomes are checked against the Python engine here, in the acceptance
fuzz (untraced against traced runs) and in
``test_matchers.test_all_matchers_agree_with_naive`` on full-byte cases.
Its tables are checked against the Python builders here.
"""

import os
import pathlib
import random
import shutil
import subprocess
import sys
import sysconfig
import zlib
from array import array
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

import qgramsearch
from qgramsearch import build_profile, fibonacci_string, kmp_shift_table, \
    matchers, native, preprocess
from qgramsearch.matchers import MATCHERS
from qgramsearch.preprocess import hash_tables

SOURCE = pathlib.Path(native.__file__).with_name("_engine.c")
PATTERN = b"abaabbaaa"
TEXT = b"abbaabbaababbabbaaabaabaabbaaa"


def test_engine_is_compiled():
    # gcc and Python.h are part of the development environment
    assert qgramsearch.ENGINE == "c", qgramsearch.ENGINE_REASON
    assert qgramsearch.ENGINE_REASON is None
    crc = zlib.crc32(SOURCE.read_bytes())
    assert pathlib.Path(native.engine.__file__) == SOURCE.parent / \
        "__pycache__" / f"_engine.{crc:08x}{EXTENSION_SUFFIXES[0]}"


def test_build_is_cached_even_without_bytecode(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    module, reason = native.load(str(source))
    assert reason is None
    built = list((tmp_path / "__pycache__").iterdir())
    assert [p.name for p in built] == [pathlib.Path(module.__file__).name]
    stamp = built[0].stat().st_mtime_ns
    again, _ = native.load(str(source))  # loads the cached build
    assert again is not None and built[0].stat().st_mtime_ns == stamp


def test_a_new_build_removes_the_builds_of_earlier_sources(tmp_path):
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    first, _ = native.load(str(source))
    source.write_text(SOURCE.read_text() + "/* an edited source */\n")
    second, reason = native.load(str(source))
    assert reason is None and second.__file__ != first.__file__
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == \
        [pathlib.Path(second.__file__).name]


def test_source_that_does_not_compile_gives_a_reason(tmp_path):
    source = tmp_path / "_engine.c"
    source.write_text("this is not C\n")
    module, reason = native.load(str(source))
    assert module is None
    assert reason.startswith("OSError: ") and "\n" not in reason
    assert list((tmp_path / "__pycache__").iterdir()) == []  # no temp left


def test_missing_source_gives_a_reason(tmp_path):
    module, reason = native.load(str(tmp_path / "_engine.c"))
    assert module is None and reason.startswith("FileNotFoundError")


def test_missing_compiler_gives_a_reason(tmp_path, monkeypatch):
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: str(tmp_path / "no-such-cc"))
    module, reason = native.load(str(source))
    assert module is None and reason.startswith("FileNotFoundError")


def test_cache_that_cannot_be_written_gives_a_reason(tmp_path):
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    (tmp_path / "__pycache__").write_text("a file, not a directory")
    module, reason = native.load(str(source))
    assert module is None and reason.startswith("FileExistsError")


def _outcomes(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.kmp_search(text, pattern),
            matchers.hashq_search(text, pattern, q),
            matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof),
            *(run(text, pattern, q) for run, _ in MATCHERS.values())]


def test_matchers_agree_without_the_engine(monkeypatch):
    rng = random.Random(5)
    cases = [(TEXT, PATTERN, 3), (fibonacci_string(14), b"abaab", 2),
             (bytes(300), bytes(70), 8), (b"ab", b"abc", 1)]
    for _ in range(200):
        al = bytes(rng.sample(range(256), rng.choice((2, 4, 256))))
        m = rng.randint(1, 40)
        text = bytes(rng.choices(al, k=rng.randint(0, 300)))
        cases.append((text, bytes(rng.choices(al, k=m)),
                      rng.randint(1, min(8, m))))
    compiled = [_outcomes(*case) for case in cases]
    monkeypatch.setattr(matchers, "engine", None)
    monkeypatch.setattr(preprocess, "engine", None)
    assert [_outcomes(*case) for case in cases] == compiled


def _tables(pattern, q):
    prof = build_profile(pattern, q)
    return [prof.hq, prof.dist, prof.kmp, *hash_tables(pattern, q, 8),
            kmp_shift_table(pattern)]


def test_builders_agree_without_the_engine(monkeypatch):
    # full-byte patterns, and two-byte ones for repeated q-grams and borders
    rng = random.Random(11)
    patterns = [bytes(rng.choices(al, k=m)) for m in [*range(1, 91), 70_000]
                for al in (range(256), rng.sample(range(256), 2))]
    cases = [(p, q) for p in patterns for q in range(1, min(len(p), 8) + 1)]
    for case in cases:  # one case's tables at a time: 0.3 MB each
        compiled = _tables(*case)
        with monkeypatch.context() as python_engine:
            python_engine.setattr(preprocess, "engine", None)
            assert _tables(*case) == compiled, case


def _distq_args(pattern=PATTERN, q=3):
    prof = build_profile(pattern, q)
    return [pattern, TEXT, q, prof.hq, prof.dist, prof.kmp, False]


def _hash_tables_args(pattern=PATTERN, q=3):
    m = len(pattern)
    return [pattern, q, 16, array("I", [m - q + 1]) * 65536,
            array("I", [0]) * (m + 1)]


def _bad(args, slot, value):
    args[slot] = value
    return args


def _table(length, i):
    return f"table {i} must be array\\('I'\\) of {length} entries"


@pytest.mark.parametrize("name, args, message", [
    pytest.param("distq", _bad(_distq_args(), 3, array("I", [0]) * 100),
                 _table(65536, 0), id="short-hq"),
    pytest.param("distq", _bad(_distq_args(), 3, array("i", [0]) * 65536),
                 _table(65536, 0), id="signed-hq"),
    pytest.param("distq", _bad(_distq_args(), 3, bytes(4 * 65536)),
                 _table(65536, 0), id="bytes-hq"),
    pytest.param("distq", _bad(_distq_args(), 4, array("I", [1]) * 9),
                 _table(10, 1), id="short-dist"),
    pytest.param("distq", _bad(_distq_args(), 5, array("I", [1]) * 10),
                 _table(11, 2), id="short-kmp"),
    pytest.param("distq", _bad(_distq_args(), 2, 9), "q must be in",
                 id="q-above-8"),
    pytest.param("distq", _bad(_distq_args(b"ab", 2), 2, 3), "q must be in",
                 id="q-above-m"),
    pytest.param("distq", _bad(_distq_args(), 3, array("I", [8]) * 65536),
                 "shift above m - q", id="hq-shift-above-m-q-1"),
    pytest.param("distq", _bad(_distq_args(), 5, array("I", [0]) * 11),
                 "zero shift", id="zero-kmp-shift"),
    pytest.param("hashq", [PATTERN, TEXT, 3, array("I", [7]) * 65536,
                           build_profile(PATTERN, 3).dist],
                 _table(256, 0), id="16-bit-hq-for-hashq"),
    pytest.param("hashq", [PATTERN, TEXT, 3, array("I", [0]) * 256,
                           array("I", [0]) * 10],
                 "zero advance", id="zero-hashq-advance"),
    pytest.param("kmp", [PATTERN, TEXT, array("I", [1]) * 10],
                 _table(11, 0), id="short-kmp-table"),
    pytest.param("kmp", [PATTERN, TEXT, array("I", [5]) * 11],
                 "impossible shift", id="kmp-shift-above-j"),
    pytest.param("kmp", [b"", TEXT, array("I", [1]) * 2], "non-empty",
                 id="empty-pattern"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 3,
                                     array("I", [7]) * 100),
                 _table(65536, 0), id="tables-short-hq"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 3,
                                     array("i", [7]) * 65536),
                 _table(65536, 0), id="tables-signed-hq"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 3,
                                     bytes(4 * 65536)),
                 _table(65536, 0), id="tables-bytes-hq"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 3, memoryview(
                     array("I", [7]) * 65536).toreadonly()),
                 "table 0 must be writable", id="tables-read-only-hq"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 2, 8),
                 _table(256, 0), id="tables-16-bit-hq-for-8-bits"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 4,
                                     array("I", [0]) * 9),
                 _table(10, 1), id="tables-short-dist"),
    pytest.param("kmp_table", [PATTERN, array("I", [0]) * 10],
                 _table(11, 0), id="tables-short-kmp"),
    pytest.param("kmp_table", [PATTERN, memoryview(
                     array("I", [0]) * 11).toreadonly()],
                 "table 0 must be writable", id="tables-read-only-kmp"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 1, 9),
                 "q must be in", id="tables-q-above-8"),
    pytest.param("hash_tables", _bad(_hash_tables_args(b"ab", 2), 1, 3),
                 "q must be in", id="tables-q-above-m"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 3,
                                     array("I", [0]) * 65536),
                 "prefilled with m - q", id="tables-hq-not-prefilled"),
    pytest.param("hash_tables", _bad(_hash_tables_args(), 2, 12),
                 "bits must be 8 or 16", id="tables-unsupported-bits"),
    pytest.param("kmp_table", [b"", array("I", [0]) * 2], "non-empty",
                 id="tables-empty-pattern"),
])
def test_bad_input_raises_instead_of_reading_out_of_bounds(name, args,
                                                           message):
    with pytest.raises(ValueError, match=message):
        getattr(native.engine, name)(*args)


def test_build_leaves_nothing_for_git():
    root = SOURCE.parents[2]
    if not (root / ".git").exists() or shutil.which("git") is None:
        pytest.skip("not a git checkout")
    status = subprocess.run(
        ["git", "-C", str(root), "status", "--porcelain",
         "--untracked-files=all"], capture_output=True, text=True,
        check=True).stdout
    assert [line for line in status.splitlines()
            if line.startswith("??") and "__pycache__" in line] == []
    ignored = subprocess.run(
        ["git", "-C", str(root), "check-ignore", "-q",
         os.path.relpath(native.engine.__file__, root)])
    assert ignored.returncode == 0
