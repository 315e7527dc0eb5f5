"""The Python engine as a tested mode.

A copy of the package without ``_engine.c`` cannot build the compiled
engine, so every search there runs the Python loops, as it does wherever
no C compiler exists.  The engine-independent test modules run against that
copy in a subprocess, which first checks that it imported the copy and that
``ENGINE`` reads ``"python"``: as PEP 399 asks of an accelerated module,
the Python version passes the same tests.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import qgramsearch

PACKAGE = pathlib.Path(qgramsearch.__file__).parent
TESTS = pathlib.Path(__file__).parent
# the modules whose tests do not need the compiled engine; test_acceptance
# is left out for its run time (about 20 s)
MODULES = ("test_matchers", "test_pyengine", "test_cli", "test_bench",
           "test_corpus")


def test_engine_independent_tests_pass_on_the_python_engine(tmp_path):
    package = tmp_path / "src" / "qgramsearch"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns(
        "__pycache__", "_engine.c"))
    script = f"""
import pathlib, sys, pytest, qgramsearch
assert pathlib.Path(qgramsearch.__file__).parent == pathlib.Path({
    str(package)!r}), qgramsearch.__file__
assert qgramsearch.ENGINE == "python", qgramsearch.ENGINE
assert qgramsearch.ENGINE_REASON.startswith("FileNotFoundError")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""
    run = subprocess.run(
        [sys.executable, "-c", script,
         *(str(TESTS / f"{name}.py") for name in MODULES)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(package.parent)),
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:] + run.stdout[-4000:]
