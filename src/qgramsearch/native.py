"""The compiled engine (the kmp, hashq and distq searches, each building its
own shift tables), built from ``_engine.c`` on first import and cached as
``__pycache__/_engine.<crc32 of the source><ABI suffix>`` in place of any
earlier build.  ``ENGINE`` is ``"c"``, or ``"python"`` with
``ENGINE_REASON`` saying why."""

import contextlib
import importlib.util
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES


def _compile(source: str, target: str) -> None:
    import shlex, subprocess, sysconfig  # only when a build is needed
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.{os.getpid()}.tmp"  # concurrent first imports race safely
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cmd = [*cc, "-O2", "-shared", "-fPIC",
           "-I" + sysconfig.get_paths()["include"], source, "-o", tmp]
    try:
        open(tmp, "wb").close()  # an unwritable cache fails before cc runs
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise OSError(next((line for line in proc.stderr.splitlines()
                                if "error" in line), f"{cc[0]} failed"))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load(source: str):
    """``(extension, None)`` built from ``source``, or ``(None, reason)``."""
    try:
        with open(source, "rb") as fh:
            crc = zlib.crc32(fh.read())
        target = os.path.join(os.path.dirname(source), "__pycache__",
                              f"_engine.{crc:08x}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(target):
            _compile(source, target)
            cache, name = os.path.split(target)
            for old in os.listdir(cache):  # only this build can ever load
                if old != name and old.startswith("_engine.") \
                        and old.endswith(EXTENSION_SUFFIXES[0]):
                    with contextlib.suppress(OSError):  # raced, or not ours
                        os.remove(os.path.join(cache, old))
        spec = importlib.util.spec_from_file_location("qgramsearch._engine",
                                                      target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, None
    except Exception as exc:  # any failure leaves the Python engine
        return None, f"{type(exc).__name__}: {exc}".splitlines()[0]


engine, ENGINE_REASON = load(os.path.join(os.path.dirname(__file__),
                                          "_engine.c"))
ENGINE = "python" if engine is None else "c"
