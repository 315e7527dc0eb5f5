"""Machine-speed canary for the benchmark.

On a shared host the same pure-Python loop runs up to 10% faster or slower
from one 20-second window to the next, and by 50% between neighbouring
milliseconds; CPU time drifts with wall time, so it is not time stolen by a
hypervisor that could be subtracted.  No bound a benchmark may fix can absorb
that.  So the run interleaves calls of a fixed loop that executes no
qgramsearch code with its own work, at CANARY_SHARE of the wall time, and
divides each timed operation by the local speed factor: the mean of the
WINDOW canary calls on either side of the operation, relative to
CANARY_REF_S, the time of one call on the reference machine.
"""

from __future__ import annotations

import statistics
from time import perf_counter

CANARY_INPUT = bytes(range(256)) * 16
CANARY_REF_S = 0.8e-3  # about the typical speed of the development machine
CANARY_SHARE = 0.05
WINDOW = 10


def canary_call() -> float:
    """Seconds for a fixed pure-Python loop shaped like the matchers' inner
    loops: index, hash, append a tuple to a trace.  It runs no qgramsearch
    code, so only the machine changes it."""
    t0 = perf_counter()
    data = CANARY_INPUT
    h = 0
    trace = []
    for i in range(len(data)):
        h = (h * 4 + data[i]) & 0xFFFF
        trace.append((i, h))
    return perf_counter() - t0


class Canary:
    def __init__(self) -> None:
        self.times: list[float] = []  # every canary call of the run, in order
        self.start()

    def start(self) -> None:
        """Begin a phase: its canary share counts from now."""
        self.t0, self.spent = perf_counter(), 0.0

    def mark(self) -> int:
        """Position of an operation that starts now among the canary calls."""
        return len(self.times)

    def tick(self, at_least: int = 0) -> None:
        """Call the canary until it has had its share of the phase's time."""
        calls = 0
        while calls < at_least or \
                self.spent < CANARY_SHARE * (perf_counter() - self.t0):
            seconds = canary_call()
            self.times.append(seconds)
            self.spent += seconds
            calls += 1

    def factor(self, mark: int) -> float:
        """How many times slower than the reference machine this one ran
        around the operation at ``mark``."""
        window = self.times[max(0, mark - WINDOW):mark + WINDOW]
        return statistics.mean(window) / CANARY_REF_S
