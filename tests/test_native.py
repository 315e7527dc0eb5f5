"""The compiled engine: its build, its fallback, and its input checks.

Its outcomes are checked against the Python engine here, in the acceptance
fuzz (untraced against traced runs) and in
``test_matchers.test_all_matchers_agree_with_naive`` on full-byte cases.
Each compiled search builds its own shift tables; the builder cases here
search texts that reach every entry of them.
"""

import contextlib
import gc
import mmap
import os
import pathlib
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
import tracemalloc
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
from hypothesis import given, settings, strategies as st

import qgramsearch
from qgramsearch import ConfigurationError, PatternProfile, build_profile, \
    fibonacci_string, matchers, native
from qgramsearch.matchers import MATCHERS
from qgramsearch.pyengine import qgram_hashes

SOURCE = pathlib.Path(native.__file__).with_name("_engine.c")
PATTERN = b"abaabbaaa"
TEXT = b"abbaabbaababbabbaaabaabaabbaaa"

# the compiler that native.load starts; tests/test_sanitizers.py uses it too
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
needs_cc = pytest.mark.skipif(shutil.which(CC[0]) is None,
                              reason=f"no C compiler: {CC[0]} not found")
needs_engine = pytest.mark.skipif(
    native.engine is None,
    reason=f"no compiled engine: {qgramsearch.ENGINE_REASON}")


@needs_cc
def test_engine_is_compiled():
    # where a compiler is found, the engine must build and load
    assert qgramsearch.ENGINE == "c", qgramsearch.ENGINE_REASON
    assert qgramsearch.ENGINE_REASON is None
    crc = zlib.crc32(SOURCE.read_bytes())
    assert pathlib.Path(native.engine.__file__) == SOURCE.parent / \
        "__pycache__" / f"_engine.{crc:08x}{EXTENSION_SUFFIXES[0]}"
    assert [name for name in dir(native.engine) if name[0] != "_"] == \
        ["bind", "distq", "hashq", "kmp"]


@needs_cc
def test_engine_compiles_without_warnings(tmp_path, no_preload):
    # at the build's -O2, since gcc's flow-based warnings (such as
    # -Wmaybe-uninitialized) run only when it optimizes; the METH_FASTCALL
    # casts of the method table are where a new warning would show first
    run = subprocess.run(
        [*CC, "-O2", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
         "-fPIC", "-c", "-I" + sysconfig.get_paths()["include"], str(SOURCE),
         "-o", str(tmp_path / "engine.o")],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.fixture
def no_preload(monkeypatch):
    """No LD_PRELOAD for the compiler that ``native.load`` starts: under
    tests/test_sanitizers.py this process has libasan preloaded, which it
    keeps, and the compiler ran about twice as slow under it."""
    monkeypatch.delenv("LD_PRELOAD", raising=False)


@needs_cc
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


@needs_cc
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


@needs_cc
def test_a_build_that_was_never_bound_raises(tmp_path, no_preload):
    # matchers.py binds the package's own build; a build loaded by itself
    # has no record classes to make, and bind checks what it is given
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    module, reason = native.load(str(source))
    assert reason is None
    with pytest.raises(TypeError):
        module.bind(matchers.SearchOutcome, matchers.SearchStats, ("a",) * 6)
    for name, args in (("kmp", [PATTERN, TEXT]), ("hashq", [PATTERN, TEXT, 3]),
                       ("distq", [PATTERN, TEXT, 3, True])):
        with pytest.raises(RuntimeError, match="not bound"):
            getattr(module, name)(*args)


@needs_cc
def test_loading_a_build_again_leaves_earlier_modules_unchanged(tmp_path,
                                                                no_preload):
    # a single-phase extension found in the import system's cache would be
    # filled into whatever module sys.modules holds under its name
    source = tmp_path / "_engine.c"
    shutil.copy(SOURCE, source)
    copy, _ = native.load(str(source))
    package, reason = native.load(str(SOURCE))
    assert reason is None and package is not copy
    assert sys.modules["qgramsearch._engine"] is native.engine
    assert pathlib.Path(copy.__file__).parent == tmp_path / "__pycache__"
    assert package.kmp(PATTERN, TEXT) == matchers.kmp_search(TEXT, PATTERN)
    with pytest.raises(RuntimeError, match="not bound"):
        copy.kmp(PATTERN, TEXT)


@needs_cc
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
    # find and count what the Python loop does with the Python builders'
    # tables; tests/test_sanitizers.py runs this under the sanitizers
    for p, q in _builder_cases():
        text = _builder_text(p, q)
        assert _searches(text, p, q) == _on_python(_searches, text, p, q), \
            (p[:20], len(p), q)


@needs_engine
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
            assert got.occurrences[0] == 1
            assert got.occurrences[-1] == len(t) - m + 1


@needs_engine
@pytest.mark.parametrize("c", [0x00, 0x01, 0x61, 0xFF])
def test_kmp_skips_to_the_next_first_pattern_byte(c):
    # After a kmp shift past the text byte, the compiled kmp finds the next
    # text byte equal to P[0] with memchr, up to the last alignment, and
    # counts a byte test and a shift for each byte it skips.  Filler texts
    # of m to m + 69 bytes, none of them c, cross memchr's 16-, 32- and
    # 64-byte vector widths; c alone, or the pattern (cut at the end of the
    # text), goes at every start, also past the last alignment.  Each text
    # is a slice between 9 bytes c on either side, so a read outside it
    # adds an occurrence or a skipped byte.
    rng = random.Random(c)
    other = [b for b in range(256) if b != c]
    for m in (1, 2, 3, 8, 17):
        p = bytes([c, *rng.choices(other, k=m - 1)])
        for n in range(m, m + 70):
            filler = bytes(rng.choices(other, k=n))
            texts = [filler]
            for s in range(n):
                texts += [filler[:s] + p[:1] + filler[s + 1:],
                          filler[:s] + p[:n - s] + filler[s + m:]]
            for t in texts:
                text = memoryview(bytes([c] * 9) + t + bytes([c] * 9))[9:-9]
                assert native.engine.kmp(p, text) == \
                    _python_loop("kmp", [p, t]), (p, t)


@pytest.mark.parametrize("m", [1, 8, 16])
def test_kmp_counts_a_text_without_the_first_pattern_byte(m):
    # every alignment fails on its first byte test, and all but the last
    # take a shift, on both engines
    rng = random.Random(m)
    text = bytes(rng.choices(range(1, 256), k=500))
    p, n = bytes([0]) + text[100:99 + m], len(text)
    for got in (matchers.kmp_search(text, p), _python_loop("kmp", [p, text])):
        assert got == matchers.SearchOutcome(
            [], matchers.SearchStats(char_comparisons=n - m + 1,
                                     kmp_shifts=n - m, windows=n - m + 1),
            None)


@needs_engine
@pytest.mark.parametrize("m, q", [(1, 1), (3, 3), (8, 8), (5, 4), (10, 8),
                                  (6, 3), (24, 8)])
def test_pairs_of_full_shifts_count_like_single_steps(m, q):
    # After a full shift m - q + 1, the compiled hashq and distq hash the
    # next two windows at once: a clean first window is a full shift to the
    # second, whose hash makes the next step, and a dirty one makes it
    # itself.  From the window ending at m, the pairs end at m + (1, 2)
    # (m - q + 1), then m + (3, 4)(m - q + 1).  A pattern q-gram put at the
    # first or the second window of either pair, at both windows of the
    # first, or one byte past one, fails that pair there, with a zero shift
    # or a shorter one.  Filler windows are clean under both fingerprints
    # (asserted): bytes z and z + 128, z a multiple of 4, hash to 0 mod 4 in
    # base 4, where a and b end in 1 and 2, and to one of two values in base
    # 2 mod 256, which z keeps off the pattern's.  With n from m to
    # m + 4(m - q + 1) + q the last pair ends at n, at n - 1 and short of n;
    # q = m steps by 1, and m < 2q - 1 rolls by under q bytes in ldistq.
    # Each text is a slice between pattern bytes.
    rng = random.Random(m * 10 + q)
    p = bytes(rng.choices(b"ab", k=m))
    mq1 = m - q + 1
    grams = {bits: set(qgram_hashes(p, q, bits)[q:]) for bits in (16, 8)}
    z = next(z for z in range(0, 128, 4) if not grams[8] & {
        qgram_hashes(bytes([z] * (q - 1) + [end]), q, 8)[q]
        for end in (z, z + 128)})
    puts = [[m + run * mq1 + off] for run in (1, 2, 3, 4) for off in (0, 1)]
    puts.append([m + mq1, m + 2 * mq1])
    for n in range(m, m + 4 * mq1 + q + 1):
        filler = bytes(rng.choices((z, z + 128), k=n))
        for bits, hashes in grams.items():
            assert not hashes & set(qgram_hashes(filler, q, bits)[q:])
        texts = [filler]
        for ends in [ends for ends in puts if max(ends) <= n]:
            for j in {m, rng.randint(q, m)}:  # a zero shift, or a shorter one
                t = bytearray(filler)
                for end in ends:
                    t[end - q:end] = p[j - q:j]
                texts.append(bytes(t))
        for t in texts:
            text = memoryview(p + t + p)[m:m + n]
            for name, args in (("hashq", [q]), ("distq", [q, False]),
                               ("distq", [q, True])):
                assert getattr(native.engine, name)(p, text, *args) == \
                    _python_loop(name, [p, t, *args]), (name, p, t, args)


@needs_engine
def test_compiled_outcomes_are_the_python_records():
    # the engine makes its records without __init__ and sets their fields
    # itself: class, field order and repr must be the Python loop's
    for text, pattern, q in ((TEXT, PATTERN, 3), (TEXT, b"ab", 1),
                             (b"", PATTERN, 2)):
        want = _on_python(_searches, text, pattern, q)
        for got, loop in zip(_searches(text, pattern, q), want, strict=True):
            assert got == loop and got.trace is None
            for record, same in ((got, loop), (got.stats, loop.stats)):
                assert type(record) is type(same)
                assert list(vars(record)) == list(vars(same))
            assert repr(got) == repr(loop)


def _fails(name, *args):
    """Call a compiled search that must fail, without keeping its error."""
    try:
        getattr(native.engine, name)(*args)
    except (ValueError, TypeError):
        return
    raise AssertionError((name, args))


@needs_engine
def test_compiled_searches_keep_no_memory_between_calls():
    # every reference a search makes is handed on or dropped, and every
    # spill buffer freed (tracemalloc traces the raw allocator too), also
    # where it fails: 1 000 more rounds of these calls leave nothing behind
    calls = [lambda: _searches(TEXT, PATTERN, 3),
             lambda: _searches(TEXT * 40, PATTERN, 2),
             # 400 occurrences: the spill outgrows its first 256 entries
             lambda: _searches(b"a" * 400, b"a", 1),
             lambda: _fails("kmp", b"", TEXT),
             lambda: _fails("hashq", PATTERN, TEXT, 9),
             lambda: _fails("distq", PATTERN, TEXT.decode(), 3, False)]
    for call in calls:
        call()  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            for call in calls:
                call()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096, grown


@needs_engine
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 255, 256, 257, 513,
                                   10_000])
def test_any_number_of_occurrences_is_returned_in_order(count):
    # A search holds its positions in C until it returns: a block of 64,
    # then a spill of 256 entries that doubles as it fills.  These counts
    # sit on each side of a full block and of the spill's first steps.
    # The texts: a run of a's, where every window is an occurrence, and
    # spaced copies of a pattern, searched through a memoryview.
    for p, text in ((b"a" * 8, b"a" * (count + 7)),
                    (b"abcaabca", memoryview(b"abcaabcax" * count))):
        for name, args in (("kmp", []), ("hashq", [3]), ("distq", [3, False]),
                           ("distq", [3, True])):
            got = getattr(native.engine, name)(p, text, *args)
            assert len(got.occurrences) == count, (name, p, args)
            assert got == _python_loop(name, [p, bytes(text), *args]), \
                (name, p, args)


@needs_engine
def test_a_fibonacci_factor_with_28_656_occurrences():
    # the most frequent m = 8 factor of the k = 27 Fibonacci string: the
    # spill doubles seven times, from 256 to 32 768 entries
    text, p = fibonacci_string(27), b"abaababa"
    for name, args in (("kmp", []), ("hashq", [3]), ("distq", [3, False]),
                       ("distq", [3, True])):
        got = getattr(native.engine, name)(p, text, *args)
        assert len(got.occurrences) == 28_656
        assert got == _python_loop(name, [p, text, *args]), (name, args)


class _NoTruth:
    def __bool__(self):
        raise ZeroDivisionError


@needs_engine
@pytest.mark.parametrize("name, pattern, more, error", [
    pytest.param("kmp", PATTERN, [], None, id="kmp"),
    pytest.param("hashq", PATTERN, [3], None, id="hashq"),
    pytest.param("hashq", PATTERN, [9], ValueError, id="q-above-8"),
    pytest.param("hashq", PATTERN, [2 ** 40], OverflowError, id="huge-q"),
    pytest.param("distq", PATTERN, [1.0, True], TypeError, id="float-q"),
    pytest.param("distq", PATTERN, [3, _NoTruth()], ZeroDivisionError,
                 id="rolling-raises"),
    pytest.param("kmp", b"", [], ValueError, id="empty-pattern"),
    pytest.param("distq", b"ab", [3, False], ValueError, id="q-above-m")])
def test_every_call_releases_both_buffers(name, pattern, more, error):
    # a bytearray whose buffer is still held cannot be resized
    pattern, text = bytearray(pattern), bytearray(TEXT)
    search = getattr(native.engine, name)
    if error is None:
        search(pattern, text, *more)
    else:
        with pytest.raises(error):
            search(pattern, text, *more)
    for held in (pattern, text):
        held.append(0)
        del held[-1]


def _distq_both(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof)]


@needs_engine
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


class _SearchesWhenCollected:
    """A cycle whose collection runs a compiled distq search."""

    def __init__(self, args, found):
        self.me, self.args, self.found = self, args, found

    def __del__(self):
        self.found.append(native.engine.distq(*self.args))


@needs_engine
def test_a_collection_during_a_search_leaves_every_result_exact():
    # The garbage collector may start whenever a Python object is made, and
    # run __del__ methods that search.  A search makes its first Python
    # object only once its entries of the engine's table are cleared, so a
    # nested search can neither see nor clear them.  With threshold 1, each
    # search below starts a collection, which finds the cycle made just
    # before it, whose search shares q-grams with the outer one.  The text
    # holds 500 copies of each pattern between random bytes, so a search
    # keeps going back to its alignment phase, which reads the table.
    rng = random.Random(23)
    p, other = bytes(rng.choices(b"acgt", k=8)), bytes(rng.choices(b"acgt",
                                                                   k=6))
    text = b"".join(bytes(rng.choices(b"acgt", k=rng.randint(0, 16))) + p
                    + other for _ in range(500))
    calls = [(pattern, text, q, rolling) for pattern in (p, other)
             for q in (2, 3) for rolling in (False, True)]
    want = [_python_loop("distq", list(args)) for args in calls]
    assert min(len(out.occurrences) for out in want) > 320
    found, got, thresholds = [], [], gc.get_threshold()
    gc.collect()
    gc.set_threshold(1)
    try:
        for k, args in enumerate(calls):
            _SearchesWhenCollected(calls[k - 1], found)
            got.append(native.engine.distq(*args))
    finally:
        gc.set_threshold(*thresholds)
        gc.collect()
    assert got == want
    assert sorted(found, key=repr) == sorted(want, key=repr)
    for probe in ((TEXT, PATTERN[::-1], 3), (text, p[2:], 2)):
        assert _distq_both(*probe) == _on_python(_distq_both, *probe), probe


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


@needs_engine
@pytest.mark.parametrize("name, args, error, message", [
    pytest.param("distq", [PATTERN, TEXT, 9, False], ValueError,
                 "q must be in", id="q-above-8"),
    pytest.param("distq", [b"ab", TEXT, 3, False], ValueError,
                 "q must be in", id="q-above-m"),
    pytest.param("kmp", [b"", TEXT], ValueError, "non-empty",
                 id="empty-pattern"),
    # hashq's q checks, and the rolling-hash distq's on an empty pattern
    pytest.param("hashq", [PATTERN, TEXT, 9], ValueError, "q must be in",
                 id="hashq-q-above-8"),
    pytest.param("hashq", [b"ab", TEXT, 3], ValueError, "q must be in",
                 id="hashq-q-above-m"),
    pytest.param("distq", [b"", TEXT, 1, True], ValueError, "q must be in",
                 id="ldistq-empty-pattern"),
    # the argument intake: each error type as the engine has always raised
    pytest.param("kmp", [PATTERN], TypeError, None, id="kmp-too-few"),
    pytest.param("hashq", [PATTERN, TEXT, 3, True], TypeError, None,
                 id="hashq-too-many"),
    pytest.param("distq", [PATTERN, TEXT, 3], TypeError, None,
                 id="distq-too-few"),
    pytest.param("kmp", [PATTERN, TEXT.decode()], TypeError, None,
                 id="str-text"),
    pytest.param("distq", [PATTERN.decode(), TEXT, 3, False], TypeError, None,
                 id="str-pattern"),
    pytest.param("hashq", [PATTERN, memoryview(TEXT)[::2], 3], BufferError,
                 None, id="strided-text"),
    pytest.param("hashq", [PATTERN, TEXT, 2 ** 40], OverflowError, None,
                 id="hashq-huge-q"),
    pytest.param("distq", [PATTERN, TEXT, -2 ** 40, True], OverflowError,
                 None, id="distq-huge-negative-q"),
    pytest.param("distq", [PATTERN, TEXT, 1.0, False], TypeError, None,
                 id="float-q"),
    # two bad arguments: the error of the one checked first
    pytest.param("hashq", [b"", memoryview(TEXT)[::2], 9], BufferError, None,
                 id="strided-text-before-q"),
    pytest.param("distq", [b"", TEXT, 9, _NoTruth()], ZeroDivisionError,
                 None, id="rolling-before-q"),
    pytest.param("hashq", [b"", TEXT, 2 ** 40], OverflowError, None,
                 id="huge-q-before-empty-pattern"),
    pytest.param("distq", [b"", TEXT, 1.5, True], TypeError, None,
                 id="float-q-before-empty-pattern"),
])
def test_bad_input_raises_instead_of_reading_out_of_bounds(name, args, error,
                                                           message):
    with pytest.raises(error, match=message):
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
        search = matchers.ldistq_search if rolling else matchers.distq_search
        out = _on_python(search, text, PatternProfile(pattern, q))
    return out


@needs_engine
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


@needs_engine
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
