"""The compiled engine: its build, its fallback, and its input checks.

Its outcomes are checked against the Python engine here, in the acceptance
fuzz (untraced against traced runs) and in
``test_matchers.test_all_matchers_agree_with_naive`` on full-byte cases.
Each compiled search builds its own shift tables; the builder cases here
search texts that reach every entry of them.
"""

import contextlib
import mmap
import os
import pathlib
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
from hypothesis import given, settings, strategies as st

import qgramsearch
from qgramsearch import ConfigurationError, PatternProfile, build_profile, \
    fibonacci_string, matchers, native
from qgramsearch.matchers import MATCHERS

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
    assert [name for name in dir(native.engine) if name[0] != "_"] == \
        ["distq", "hashq", "kmp"]


@pytest.fixture
def no_preload(monkeypatch):
    """No LD_PRELOAD for the compiler that ``native.load`` starts: under
    tests/test_sanitizers.py this process has libasan preloaded, which it
    keeps, and the compiler ran about twice as slow under it."""
    monkeypatch.delenv("LD_PRELOAD", raising=False)


def test_build_is_cached_even_without_bytecode(tmp_path, monkeypatch,
                                               no_preload):
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


def test_a_new_build_removes_the_builds_of_earlier_sources(tmp_path,
                                                           no_preload):
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    first, _ = native.load(str(source))
    source.write_text(SOURCE.read_text() + "/* an edited source */\n")
    second, reason = native.load(str(source))
    assert reason is None and second.__file__ != first.__file__
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == \
        [pathlib.Path(second.__file__).name]


def test_source_that_does_not_compile_gives_a_reason(tmp_path, no_preload):
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


def _searches(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.kmp_search(text, pattern),
            matchers.hashq_search(text, pattern, q),
            matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof)]


def _outcomes(text, pattern, q):
    return [*_searches(text, pattern, q),
            *(run(text, pattern, q) for run, _ in MATCHERS.values())]


def test_matchers_agree_without_the_engine(monkeypatch, tmp_path):
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
    with contextlib.ExitStack() as stack:
        # the compiled loops read the caller's buffer, the Python ones a
        # copy: any bytes-like text gives the outcome of its bytes
        buffers, want = [], []
        for i, (text, pattern, q) in enumerate(cases[:24]):
            if not text:
                continue  # an empty file cannot be mapped
            (tmp_path / str(i)).write_bytes(text)
            file = stack.enter_context(open(tmp_path / str(i), "rb"))
            mapped = stack.enter_context(
                mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ))
            buffers += [(buf, pattern, q) for buf in
                        (bytearray(text), memoryview(text), mapped)]
            want += [compiled[i]] * 3
        assert [_outcomes(*case) for case in buffers] == want
        monkeypatch.setattr(matchers, "engine", None)
        assert [_outcomes(*case) for case in cases] == compiled
        assert [_outcomes(*case) for case in buffers] == want


def _on_python(search, *args):
    """``search(*args)`` with the Python engine."""
    with pytest.MonkeyPatch.context() as python_engine:
        python_engine.setattr(matchers, "engine", None)
        return search(*args)


def _builder_cases():
    # full-byte patterns, and two-byte ones for repeated q-grams and borders
    rng = random.Random(11)
    patterns = [bytes(rng.choices(al, k=m)) for m in [*range(1, 91), 70_000]
                for al in (range(256), rng.sample(range(256), 2))]
    return [(p, q) for p in patterns for q in range(1, min(len(p), 8) + 1)]


def _builder_text(p, q):
    """``p``, each proper prefix of ``p`` followed by a byte that breaks it
    (``p``'s first byte where that differs), and the q-grams of ``p``: a
    mismatch at every pattern position and a window on every q-gram.  Past
    m = 90, only the prefixes of under 90 bytes and 90 q-grams spread over
    ``p``, so the text stays near m bytes."""
    m = len(p)
    parts = [p] + [p[:k] + bytes([p[0] if p[0] != p[k] else p[k] ^ 1])
                   for k in range(min(m, 90))]
    parts += [p[j - q:j] for j in range(q, m + 1, max(1, m // 90))]
    return b"".join(parts)


def test_builders_agree_without_the_engine():
    # the compiled searches, each building its tables from the pattern,
    # find and count what the Python loops do with the Python builders'
    # tables; tests/test_sanitizers.py runs this under the sanitizers
    for p, q in _builder_cases():
        text = _builder_text(p, q)
        assert _searches(text, p, q) == _on_python(_searches, text, p, q), \
            (p[:20], len(p), q)


@pytest.mark.parametrize("m", [7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_searches_read_only_the_slices_they_are_given(m):
    # The compiled searches compare 8 bytes at a time.  Here pattern and
    # text are slices of larger buffers: the text slice starts and ends
    # with an occurrence and sits between two more copies of the pattern,
    # and the pattern slice sits between its complement, so any byte read
    # outside either slice adds an occurrence or breaks one.
    rng = random.Random(m)
    p = bytes(rng.choices(b"ab", k=m))
    other = p.translate(bytes.maketrans(b"ab", b"ba"))
    t = p + bytes(rng.choices(b"ab", k=2 * m + 5)) + p
    pattern = memoryview(other + p + other)[m:2 * m]
    text = memoryview(p + t + p)[m:m + len(t)]
    for q in sorted({1, 3, min(m, 8)}):
        for name, args in (("kmp", []), ("hashq", [q]), ("distq", [q, False]),
                           ("distq", [q, True])):
            got = getattr(native.engine, name)(pattern, text, *args)
            assert got == _python_loop(name, [p, t, *args]), (name, q)
            assert got[0][0] == 1 and got[0][-1] == len(t) - m + 1


def _distq_both(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof)]


def test_engine_hq_table_is_clean_after_every_call():
    # distq sets the entries of its pattern's q-grams in the engine's own
    # 16-bit table and clears them before it returns; an entry left behind
    # would change the shifts and the dist table of every later pattern with
    # a q-gram hashing like it.  Calls that fail validation come between.
    rng = random.Random(13)
    long = bytes(rng.choices(b"ab", k=70_000))
    cases = [(TEXT, PATTERN, 3), (TEXT, b"a", 1), (TEXT, b"abaab", 5),
             (TEXT, b"aaaaaaaa", 2), (long[9:] + long, long, 8),
             (long[:5000], long[:400], 1)]
    for _ in range(40):
        m = rng.randint(1, 12)
        text, pattern = bytes(rng.choices(b"ab", k=300)), \
            bytes(rng.choices(b"ab", k=m))
        cases.append((text, pattern, rng.randint(1, min(m, 8))))
    engine = native.engine
    failing = [
        lambda: engine.distq(PATTERN, TEXT, 9, False),  # q above 8
        lambda: engine.distq(PATTERN[:2], TEXT, 3, True),  # q above m
        lambda: engine.distq(b"", TEXT, 1, False),  # empty pattern
        lambda: engine.hashq(PATTERN, TEXT, 9),
        lambda: engine.kmp(b"", TEXT),
    ]
    for i, case in enumerate(cases):
        with pytest.raises(ValueError):
            failing[i % len(failing)]()
        # the probe shares q-grams with PATTERN, and TEXT holds them all
        for probe in (case, (TEXT, PATTERN[::-1], 3)):
            assert _distq_both(*probe) == _on_python(_distq_both, *probe), \
                probe


def test_threads_searching_at_once_get_their_own_results():
    # each compiled call holds the GIL from setting its entries of the
    # engine's table to clearing them, so threads cannot see each other's
    rng = random.Random(19)
    text = bytes(rng.choices(b"ab", k=20_000))
    cases = [(bytes(rng.choices(b"ab", k=m)), q)
             for m, q in ((8, 3), (9, 3), (16, 2), (32, 3), (5, 5))]
    want = [_distq_both(text, *case) for case in cases]
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda k=k: results.append(
            [(k, _distq_both(text, *cases[k])) for _ in range(20)]))
                   for k in [*range(len(cases))] * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    assert all(got == want[k] for run in results for k, got in run)


@pytest.mark.parametrize("name, args, message", [
    pytest.param("distq", [PATTERN, TEXT, 9, False], "q must be in",
                 id="q-above-8"),
    pytest.param("distq", [b"ab", TEXT, 3, False], "q must be in",
                 id="q-above-m"),
    pytest.param("kmp", [b"", TEXT], "non-empty", id="empty-pattern"),
    # the checks that guarded the table builders, now made by the search
    # that builds the tables
    pytest.param("hashq", [PATTERN, TEXT, 9], "q must be in",
                 id="tables-q-above-8"),
    pytest.param("hashq", [b"ab", TEXT, 3], "q must be in",
                 id="tables-q-above-m"),
    pytest.param("distq", [b"", TEXT, 1, True], "q must be in",
                 id="tables-empty-pattern"),
])
def test_bad_input_raises_instead_of_reading_out_of_bounds(name, args,
                                                           message):
    with pytest.raises(ValueError, match=message):
        getattr(native.engine, name)(*args)


# --- argument fuzz: every call equals the Python loop or raises ValueError

@st.composite
def _engine_call(draw):
    """(name, arguments) of a call to a compiled search."""
    name = draw(st.sampled_from(("kmp", "hashq", "distq")))
    alphabet = draw(st.sampled_from((b"ab", b"acgt", bytes(range(256)))))
    pattern = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=10)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    text = bytes(rng.choices(alphabet, k=draw(st.integers(0, 60))))
    text = draw(st.sampled_from((bytes, bytearray, memoryview)))(text)
    if name == "kmp":
        return name, [pattern, text]
    q = draw(st.integers(0, 9))
    if name == "hashq":
        return name, [pattern, text, q]
    return name, [pattern, text, q, draw(st.booleans())]


def _python_loop(name, args):
    """What the Python loop gives for the arguments of a compiled call."""
    if name == "kmp":
        out = _on_python(matchers.kmp_search, args[1], args[0])
    elif name == "hashq":
        out = _on_python(matchers.hashq_search, args[1], args[0], args[2])
    else:
        pattern, text, q, rolling = args
        out = _on_python(matchers._distq_core, text,
                         PatternProfile(pattern, q), rolling, False)
    return (out.occurrences, *vars(out.stats).values())


@given(_engine_call())
@settings(max_examples=300, deadline=None)
def test_any_arguments_give_the_python_result_or_a_value_error(call):
    name, args = call
    try:
        got = getattr(native.engine, name)(*args)
    except ValueError:
        with pytest.raises(ConfigurationError):
            _python_loop(name, args)
        return
    assert got == _python_loop(name, args)


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
