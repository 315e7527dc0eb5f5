"""The compiled engine: its build, its fallback, and its input checks.

Its outcomes are checked against the Python engine here, in the acceptance
fuzz (untraced against traced runs) and in
``test_matchers.test_all_matchers_agree_with_naive`` on full-byte cases.
Its tables are checked against the Python builders here.
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
from array import array
from importlib.machinery import EXTENSION_SUFFIXES

import pytest
from hypothesis import given, settings, strategies as st

import qgramsearch
from qgramsearch import build_profile, fibonacci_string, kmp_shift_table, \
    matchers, native, preprocess
from qgramsearch.hashing import qgram_hashes
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


def _outcomes(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.kmp_search(text, pattern),
            matchers.hashq_search(text, pattern, q),
            matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof),
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
        monkeypatch.setattr(preprocess, "engine", None)
        assert [_outcomes(*case) for case in cases] == compiled
        assert [_outcomes(*case) for case in buffers] == want


def _tables(pattern, q):
    prof = build_profile(pattern, q)
    return [prof.hq, prof.dist, prof.kmp, *hash_tables(pattern, q, 8),
            kmp_shift_table(pattern)]


def _builder_cases():
    # full-byte patterns, and two-byte ones for repeated q-grams and borders
    rng = random.Random(11)
    patterns = [bytes(rng.choices(al, k=m)) for m in [*range(1, 91), 70_000]
                for al in (range(256), rng.sample(range(256), 2))]
    return [(p, q) for p in patterns for q in range(1, min(len(p), 8) + 1)]


def test_builders_agree_without_the_engine(monkeypatch):
    # tests/test_sanitizers.py makes the same comparison with the compiled
    # side built with the sanitizers
    for case in _builder_cases():  # one case's tables at a time: 0.3 MB each
        compiled = _tables(*case)
        with monkeypatch.context() as python_engine:
            python_engine.setattr(preprocess, "engine", None)
            assert _tables(*case) == compiled, case


def _on_python(build, *args):
    """``build(*args)`` with the Python engine."""
    with pytest.MonkeyPatch.context() as python_engine:
        python_engine.setattr(matchers, "engine", None)
        python_engine.setattr(preprocess, "engine", None)
        return build(*args)


def _distq_both(text, pattern, q):
    prof = build_profile(pattern, q)
    return [matchers.distq_search(text, prof),
            matchers.ldistq_search(text, prof), prof.dist]


def test_engine_hq_table_is_clean_after_every_call():
    # distq, and hash_tables given no hq, set the entries of their pattern's
    # q-grams in the engine's own 16-bit table and clear them before they
    # return, also when distq raises; an entry left behind would change the
    # shifts and the dist table of every later pattern with a q-gram hashing
    # like it
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
    prof = build_profile(PATTERN, 3)
    late = array("I", [7]) * 65536  # prefilled but at PATTERN's last q-gram
    late[qgramsearch.qgram_hash16(PATTERN[-3:], 3)] = 0
    engine = native.engine
    failing = [
        lambda: engine.distq(PATTERN, TEXT, 3, prof.dist,
                             array("I", [0]) * 11, False),  # mid-search
        lambda: engine.hash_tables(PATTERN, 3, 16, array("I", late),
                                   array("I", [0]) * 10),
        lambda: engine.distq(PATTERN, TEXT, 3, prof.dist[:-1], prof.kmp, True),
        lambda: engine.distq(PATTERN, TEXT, 9, prof.dist, prof.kmp, False),
        lambda: engine.hash_tables(PATTERN, 3, 12, None, prof.dist),
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


def _distq_args(pattern=PATTERN, q=3):
    prof = build_profile(pattern, q)
    return [pattern, TEXT, q, prof.dist, prof.kmp, False]


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
    pytest.param("distq", _bad(_distq_args(), 3, array("I", [1]) * 9),
                 _table(10, 0), id="short-dist"),
    pytest.param("distq", _bad(_distq_args(), 4, array("I", [1]) * 10),
                 _table(11, 1), id="short-kmp"),
    pytest.param("distq", _bad(_distq_args(), 2, 9), "q must be in",
                 id="q-above-8"),
    pytest.param("distq", _bad(_distq_args(b"ab", 2), 2, 3), "q must be in",
                 id="q-above-m"),
    pytest.param("distq", _bad(_distq_args(), 4, array("I", [0]) * 11),
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


# --- table fuzz: any table, and every call equals the Python loop or raises

_ENTRIES = [*range(13), 2 ** 32 - 1]


@st.composite
def _table_arg(draw, valid, hot, rng):
    """``valid``, or a copy with entries replaced (at positions from ``hot``
    or anywhere) or all random, or a table of the wrong length, item type or
    access."""
    kind = draw(st.sampled_from(("valid", "entries", "entries", "random",
                                 "shape")))
    table = array("I", valid)
    if kind == "entries":
        for _ in range(draw(st.integers(1, 3))):
            anywhere = st.integers(0, len(table) - 1)
            at = st.sampled_from(hot) if hot else anywhere
            table[draw(st.one_of(at, anywhere))] = draw(
                st.sampled_from(_ENTRIES))
    elif kind == "random" and len(table) <= 256:
        table = array("I", rng.choices(_ENTRIES, k=len(table)))
    elif kind == "shape":
        table = [table[:-1], table + array("I", [1]),
                 array("i", [0]) * len(table), table.tobytes(),
                 memoryview(table).toreadonly()][draw(st.integers(0, 4))]
    return table


@st.composite
def _engine_call(draw):
    """(name, arguments) of a call to a compiled entry point."""
    name = draw(st.sampled_from(
        ("kmp", "hashq", "distq", "kmp_table", "hash_tables")))
    alphabet = draw(st.sampled_from((b"ab", b"acgt", bytes(range(256)))))
    pattern = bytes(draw(st.lists(st.sampled_from(alphabet), max_size=10)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    text = bytes(rng.choices(alphabet, k=draw(st.integers(0, 60))))
    m = len(pattern)
    q = draw(st.one_of(st.integers(1, max(1, min(m, 8))), st.integers(0, 9)))
    if name in ("kmp", "distq", "kmp_table"):
        kmp = kmp_shift_table(pattern) if m else array("I", [0, 1])
        kmp = draw(_table_arg(kmp, list(range(1, m + 2)), rng))
        if name == "kmp":
            return name, [pattern, text, kmp]
        if name == "kmp_table":
            return name, [pattern, kmp]
    bits = {"distq": 16, "hashq": 8}.get(name) or draw(st.sampled_from(
        (16, 8, 12)))
    hashed = 1 <= q <= min(m, 8)
    if not hashed:
        dist = array("I", [1]) * (m + 1)
    elif bits == 16:
        dist = build_profile(pattern, q).dist
    else:
        dist = hash_tables(pattern, q, 8)[1]
    dist = draw(_table_arg(dist, list(range(q, m + 1)), rng))
    if name == "distq":
        return name, [pattern, text, q, dist, kmp, draw(st.booleans())]
    hashes = qgram_hashes(pattern, q, 16 if bits == 16 else 8)[q:] \
        if hashed else []
    if name == "hashq":
        hq = hash_tables(pattern, q, 8)[0] if hashed else array("I", [0]) * 256
        return name, [pattern, text, q, draw(_table_arg(hq, hashes, rng)),
                      dist]
    prefill = array("I", [max(m - q + 1, 0)]) * (1 << bits)
    hq = draw(st.one_of(st.none(), _table_arg(prefill, hashes, rng)))
    return name, [pattern, q, bits, hq, dist]


def _python_loop(name, args):
    """What the Python engine gives for the arguments of a compiled call."""
    with pytest.MonkeyPatch.context() as python_engine:
        python_engine.setattr(matchers, "engine", None)
        python_engine.setattr(preprocess, "engine", None)
        if name == "kmp_table":
            return list(kmp_shift_table(args[0]))
        if name == "hash_tables":
            pattern, q, bits, hq, _ = args
            if hq is None:
                return list(hash_tables(pattern, q, bits)[1]), None
            # the Python scan of hash_tables, run on the hq given
            m, dist = len(pattern), [0] + [1] * len(pattern)
            for j, h in enumerate(qgram_hashes(pattern, q, bits)[q:], q):
                dist[j], hq[h] = j - (m - hq[h]), m - j
            return dist, list(hq)
        if name == "kmp":
            pattern, text, kmp = args
            python_engine.setattr(matchers, "kmp_shift_table", lambda p: kmp)
            out = matchers.kmp_search(text, pattern)
        elif name == "hashq":
            pattern, text, q, hq, dist = args
            python_engine.setattr(matchers, "hash_tables",
                                  lambda p, q, bits: (hq, dist))
            out = matchers.hashq_search(text, pattern, q)
        else:
            pattern, text, q, dist, kmp, rolling = args
            out = matchers._distq_core(
                text, preprocess.PatternProfile(pattern, q, kmp, dist),
                rolling, False)
        return (out.occurrences, *vars(out.stats).values())


@given(_engine_call())
@settings(max_examples=300, deadline=None)
def test_any_table_gives_the_python_result_or_a_value_error(call):
    name, args = call
    # the builders fill their tables in place: keep what they were given
    given_args = [array("I", a) if isinstance(a, array) else a for a in args]
    try:
        got = getattr(native.engine, name)(*args)
    except ValueError:
        return
    if name == "kmp_table":
        got = list(args[1])
    elif name == "hash_tables":
        got = list(args[4]), None if args[3] is None else list(args[3])
    assert got == _python_loop(name, given_args)


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
