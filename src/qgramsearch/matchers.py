"""Exact byte-string matchers, their records and their q check.

Five matchers share one reporting convention (1-based, overlapping
occurrences, sorted ascending):

* ``naive_search``   - window-by-window comparison; the correctness oracle.
* ``kmp_search``     - strong-border shifting, at most 2n character tests.
* ``hashq_search``   - 8-bit q-gram hash shifts, then left-to-right compare.
* ``distq_search``   - kmp layered under 16-bit hash shifts and the q-gram
                       distance table; hashes each window afresh.
* ``ldistq_search``  - same shift decisions as distq_search, but the window
                       hash is rolled forward whenever the next window end is
                       less than q bytes away, so at most O(n + m) bytes are
                       ever hashed.

``MATCHERS`` maps each name to a runner with one signature and is the one
list of algorithms that the CLI and the benchmark harness read.

:func:`check_q` is the one check of a (pattern length, q) pair and
:func:`clamp_q` the one clamp of a requested q to the q that runs.  q stops
at 8: for q >= 9 the weight 4^(q-1) of the outgoing byte of the 16-bit
q-gram hash is 0 mod 2^16 and the rolling update could no longer remove it
(the hashes and the shift tables are described in
:mod:`~qgramsearch.pyengine`).

Every matcher except the naive one returns a :class:`SearchOutcome`.  Its
:class:`SearchStats` counters are kept as plain integers in the search loop,
each at the point where the counted event happens.  A :class:`SearchTrace`
is built only when the matcher is called with ``trace=True``; otherwise
``outcome.trace`` is ``None`` and the search holds no per-event memory.

A pattern is used as it is when it is ``bytes``; any other form that
``bytes()`` takes (bytearray, memoryview, a list of ints, a bytes subclass)
is converted first.  Untraced kmp, hashq, distq and ldistq searches run the
compiled searches of ``_engine.c`` (see :mod:`qgramsearch.native`) once the
pattern and q are validated.  Each builds the same tables from the pattern
on every call, returns the finished :class:`SearchOutcome` (see ``bind``
below), and reads the caller's text in place (any C-contiguous bytes-like
object).  Every traced search, and every search when no compiled engine
could be loaded, runs the one Python search loop instead: ``_distq_core``,
which runs kmp and hashq as modes of distq.  It lives in
:mod:`~qgramsearch.pyengine`, which the searches import only on that
branch, so an untraced search never compiles it.  The naive oracle, the
other Python loop, has no compiled twin and is defined here.

A shift event is recorded (counted, and traced when asked) only when the
pattern lands on an alignment that still fits inside the text (the trailing
shift that walks the window off the end is performed but not recorded, so
the trace lists exactly the transitions between examined alignments).
Hash-shift events may carry amount 0: the table confirmed the current
alignment without moving it.
"""

from .errors import ConfigurationError, _FrozenRecord, _Record
from .native import engine

MAX_Q = 8


def check_q(q: int, m: int) -> None:
    """Raise :class:`ConfigurationError` unless the pattern length ``m`` is
    positive, q is an int and 1 <= q <= min(m, MAX_Q), checked in that
    order.  The matchers accept a plain int q in range with one inline
    test and call this for any other q, so it alone words the errors."""
    if m == 0:
        raise ConfigurationError("pattern must be non-empty")
    if not isinstance(q, int):
        raise ConfigurationError(f"q must be an int, got {q!r}")
    if not 1 <= q <= MAX_Q:
        raise ConfigurationError(f"q must be in [1, {MAX_Q}], got {q}")
    if q > m:
        raise ConfigurationError(f"q = {q} exceeds pattern length m = {m}")


def clamp_q(q: int, m: int) -> int:
    """The q that a q-taking matcher runs with on a length-m pattern."""
    return min(q, m, MAX_Q)


class PatternProfile(_FrozenRecord):
    """A pattern, stored as ``bytes``, and its q-gram size, as the
    distance-shift matchers take them once :func:`check_q` accepts them.
    A profile holds no table: the searches build theirs from the pattern."""

    def __init__(self, pattern: bytes, q: int):
        if type(pattern) is not bytes:
            pattern = bytes(pattern)
        if not (type(q) is int and 0 < q <= MAX_Q and q <= len(pattern)):
            check_q(q, len(pattern))
        fields = self.__dict__  # item writes: cheaper than update(**kwargs)
        fields["pattern"] = pattern
        fields["q"] = q


def build_profile(pattern: bytes, q: int) -> PatternProfile:
    """The :class:`PatternProfile` of ``pattern`` at q-gram size ``q``: O(m),
    no table."""
    return PatternProfile(pattern, q)


class SearchStats(_Record):
    """Work counters for one search run.

    char_comparisons counts pattern-vs-text byte tests during window
    comparison; the first-byte test that opens each hash-aligned window is
    counted in first_char_checks instead, so the 2n bound stays visible.
    hashed_char_reads counts text bytes consumed by hashing: q per fresh
    hash, 1 per rolling step.  hq_shifts, dist_shifts and kmp_shifts count
    the recorded shifts of each rule.  windows is the number of alignments
    examined: 1 + the number of recorded shifts with a positive amount, or
    0 when the text is shorter than the pattern (n < m).
    """

    def __init__(self, char_comparisons=0, first_char_checks=0,
                 hashed_char_reads=0, hq_shifts=0, dist_shifts=0,
                 kmp_shifts=0, windows=0):
        self.char_comparisons = char_comparisons
        self.first_char_checks = first_char_checks
        self.hashed_char_reads = hashed_char_reads
        self.hq_shifts = hq_shifts
        self.dist_shifts = dist_shifts
        self.kmp_shifts = kmp_shifts
        self.windows = windows


class SearchTrace(_Record):
    """Per-event log: shift events (kind, amount), alignment q-gram
    positions, and the text positions at which window hashes ended."""

    def __init__(self, shifts=None, positions=None, hash_ends=None):
        self.shifts = [] if shifts is None else shifts
        self.positions = [] if positions is None else positions
        self.hash_ends = [] if hash_ends is None else hash_ends


class SearchOutcome(_Record):
    def __init__(self, occurrences: list[int], stats: SearchStats,
                 trace: SearchTrace | None):  # None unless trace=True
        self.occurrences, self.stats, self.trace = occurrences, stats, trace


if engine is not None:  # the compiled searches return these records
    engine.bind(SearchOutcome, SearchStats, tuple(vars(SearchStats())))


def naive_search(text: bytes, pattern: bytes) -> list[int]:
    """All 1-based occurrence positions by direct window comparison.

    This is the oracle the other matchers are judged against; it stays one
    obvious comparison per window on purpose.
    """
    t = bytes(text)
    p = bytes(pattern)
    if not p:
        raise ConfigurationError("pattern must be non-empty")
    m = len(p)
    return [i + 1 for i in range(len(t) - m + 1) if t[i:i + m] == p]


def kmp_search(text: bytes, pattern: bytes,
               trace: bool = False) -> SearchOutcome:
    """Strong-border matcher; at most 2n character comparisons."""
    p = pattern if type(pattern) is bytes else bytes(pattern)
    if not p:
        raise ConfigurationError("pattern must be non-empty")
    if engine is not None and not trace:
        return engine.kmp(p, text)
    from .pyengine import _distq_core
    return _distq_core(text, p, None, False, trace)


def hashq_search(text: bytes, pattern: bytes, q: int,
                 trace: bool = False) -> SearchOutcome:
    """8-bit hash-shift matcher.

    The window end jumps by the table amount until the suffix q-gram hash
    matches the pattern's (shift 0); the window is then compared left to
    right and advanced by a constant precomputed from the first repeat of
    the suffix hash inside the pattern.
    """
    p = pattern if type(pattern) is bytes else bytes(pattern)
    if not (type(q) is int and 0 < q <= MAX_Q and q <= len(p)):
        check_q(q, len(p))
    if engine is not None and not trace:
        return engine.hashq(p, text, q)
    from .pyengine import _distq_core
    return _distq_core(text, p, q, False, trace, 8)


def distq_search(text: bytes, profile: PatternProfile,
                 trace: bool = False) -> SearchOutcome:
    """Distance-shift matcher; every window hash is computed from scratch."""
    if engine is not None and not trace:
        return engine.distq(profile.pattern, text, profile.q, False)
    from .pyengine import _distq_core
    return _distq_core(text, profile.pattern, profile.q, False, trace)


def ldistq_search(text: bytes, profile: PatternProfile,
                  trace: bool = False) -> SearchOutcome:
    """Distance-shift matcher with rolling window hashes.

    Window end positions never decrease, so reusing the previous hash when
    the next end is less than q bytes ahead caps hashed text bytes at
    O(n + m) overall.
    """
    if engine is not None and not trace:
        return engine.distq(profile.pattern, text, profile.q, True)
    from .pyengine import _distq_core
    return _distq_core(text, profile.pattern, profile.q, True, trace)


# The one list of algorithms: name -> (runner, takes_q).  A runner maps
# (text, pattern, q) to a SearchOutcome, pattern preprocessing included;
# runners that take no q ignore it.
MATCHERS = {
    "naive": (lambda text, pattern, q: SearchOutcome(
        naive_search(text, pattern), SearchStats(), None), False),
    "kmp": (lambda text, pattern, q: kmp_search(text, pattern), False),
    "hashq": (hashq_search, True),
    "distq": (lambda text, pattern, q:
              distq_search(text, build_profile(pattern, q)), True),
    "ldistq": (lambda text, pattern, q:
               ldistq_search(text, build_profile(pattern, q)), True),
}
ALGORITHMS = tuple(MATCHERS)
