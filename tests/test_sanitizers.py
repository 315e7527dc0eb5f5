"""The compiled engine under AddressSanitizer and UndefinedBehaviorSanitizer.

A copy of the package gets an ``_engine.c`` build with both sanitizers at
the crc-named cache path that :mod:`qgramsearch.native` loads, and the
engine's tests (its table fuzz among them) run against that copy in a
subprocess.  An out-of-bounds access, a use after free or undefined
behaviour then ends the run with a report.  Nothing is written into the
package's own ``__pycache__``.

The builders' comparison is split: its compiled side runs in a sanitized
subprocess, its Python side here.
"""

import os
import pathlib
import pickle
import shlex
import shutil
import subprocess
import sys
import sysconfig
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

import qgramsearch
from qgramsearch import preprocess
from test_native import _builder_cases, _tables, \
    test_builders_agree_without_the_engine as BUILDERS

PACKAGE = pathlib.Path(qgramsearch.__file__).parent
TESTS = pathlib.Path(__file__).parent
FLAGS = ["-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=undefined"]
# the compiled tables of every builder case, pickled one case at a time
DUMP = """import pickle, sys
sys.path.insert(0, sys.argv[1])
from test_native import _builder_cases, _tables
for case in _builder_cases():
    pickle.dump(_tables(*case), sys.stdout.buffer)
"""


def test_engine_tests_pass_under_sanitizers(tmp_path, monkeypatch):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]} not found")
    libasan = subprocess.run([*cc, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip(f"{cc[0]} has no libasan.so")
    package = tmp_path / "src" / "qgramsearch"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "_engine.c"
    build = package / "__pycache__" / \
        f"_engine.{zlib.crc32(source.read_bytes()):08x}{EXTENSION_SUFFIXES[0]}"
    build.parent.mkdir()
    subprocess.run([*cc, *FLAGS, "-shared", "-fPIC",
                    "-I" + sysconfig.get_paths()["include"], str(source),
                    "-o", str(build)], check=True, capture_output=True)
    stamp = build.stat().st_mtime_ns
    # PYTHONMALLOC=malloc: ASan sees each buffer, not pymalloc's pools (an
    # overflow there crashes later in pymalloc, if at all); a 16 MB
    # quarantine keeps the run near 160 MB instead of 900; -s: a report is
    # written before pytest could print captured output
    env = dict(os.environ, LD_PRELOAD=libasan, PYTHONMALLOC="malloc",
               ASAN_OPTIONS="detect_leaks=0:quarantine_size_mb=16",
               PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         str(TESTS / "test_native.py"), "-k", f"not {BUILDERS.__name__}",
         f"{TESTS / 'test_matchers.py'}::test_all_matchers_agree_with_naive"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:] + run.stdout[-2000:]
    # BUILDERS with only its compiled side under the sanitizers: run there,
    # its Python side allocated every q-gram hash through ASan and took two
    # thirds of the gate's time
    cases, checked = _builder_cases(), 0
    with open(tmp_path / "stderr", "w+") as log:
        with subprocess.Popen([sys.executable, "-c", DUMP, str(TESTS)],
                              cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                              stderr=log) as child:
            for case in cases:
                try:
                    compiled = pickle.load(child.stdout)
                except EOFError:  # the child failed: its log says why
                    break
                with monkeypatch.context() as python_engine:
                    python_engine.setattr(preprocess, "engine", None)
                    assert _tables(*case) == compiled, case
                checked += 1
        log.seek(0)
        assert (child.returncode, checked) == (0, len(cases)), \
            log.read()[-4000:]
    # test_engine_is_compiled loaded the sanitized build, not a rebuild
    assert build.stat().st_mtime_ns == stamp
