"""The compiled engine under AddressSanitizer and UndefinedBehaviorSanitizer.

A copy of the package gets an ``_engine.c`` build with both sanitizers at
the crc-named cache path that :mod:`qgramsearch.native` loads, and the
engine's tests (its argument fuzz and the builder cases, which reach every
entry of the tables each search builds, among them) run against that copy
in a subprocess.  An out-of-bounds access, a use after free or undefined
behaviour then ends the run with a report.  Nothing is written into the
package's own ``__pycache__``.
"""

import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

import qgramsearch
from test_native import test_builders_agree_without_the_engine as BUILDERS

PACKAGE = pathlib.Path(qgramsearch.__file__).parent
TESTS = pathlib.Path(__file__).parent
FLAGS = ["-O1", "-g", "-fsanitize=address,undefined",
         "-fno-sanitize-recover=undefined"]


def test_engine_tests_pass_under_sanitizers(tmp_path):
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
    # written before pytest could print captured output.  The builder cases
    # run apart, with pymalloc: their Python reference allocates each of
    # its ints through ASan's malloc otherwise, and took 45 s instead of 6.
    # The engine's tables come from the C allocator either way, and every
    # builder text over 512 bytes too.
    env = dict(os.environ, LD_PRELOAD=libasan,
               ASAN_OPTIONS="detect_leaks=0:quarantine_size_mb=16",
               PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
    builders = f"{TESTS / 'test_native.py'}::{BUILDERS.__name__}"
    runs = [subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         *tests], cwd=tmp_path, env=dict(env, PYTHONMALLOC=malloc),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for malloc, tests in (
            ("malloc", [str(TESTS / "test_native.py"), "-k",
                        f"not {BUILDERS.__name__}",
                        f"{TESTS / 'test_matchers.py'}::"
                        "test_all_matchers_agree_with_naive"]),
            ("pymalloc", [builders]))]
    for run in runs:  # both at once: the gate takes as long as the longer
        stdout, stderr = run.communicate(timeout=600)
        assert run.returncode == 0, stderr[-4000:] + stdout[-2000:]
    # test_engine_is_compiled loaded the sanitized build, not a rebuild
    assert build.stat().st_mtime_ns == stamp
