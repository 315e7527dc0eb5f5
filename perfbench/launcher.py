"""Runs CLI processes for the benchmark from a small process.

Linux charges a process's ``ru_maxrss`` with the peak RSS of the image that
``exec`` replaced, so a CLI process spawned straight from the benchmark (tens
of MB) would report the benchmark's memory instead of its own.  This launcher
holds almost nothing, so the peak RSS that ``os.wait4`` returns here is the
CLI's own.

Protocol, one request at a time: a JSON line ``{"argv": [...]}`` on stdin;
the reply is a JSON line ``{"code", "wall_s", "maxrss_kb", "stdout_bytes"}``
followed by that many bytes of the child's stdout.  The launcher exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    reply = sys.stdout.buffer
    for line in sys.stdin.buffer:
        argv = json.loads(line)["argv"]
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        header = {"code": proc.returncode, "wall_s": wall,
                  "maxrss_kb": usage.ru_maxrss, "stdout_bytes": len(out)}
        reply.write(json.dumps(header).encode() + b"\n" + out)
        reply.flush()


if __name__ == "__main__":
    main()
