"""Byte-level exact string matching with q-gram distance shift tables.

The package bundles two distance-shift matchers (``distq_search`` and its
rolling-hash variant ``ldistq_search``), three baselines (naive, strong
border, 8-bit hash shift), the preprocessing that feeds them, corpus
generators and a small benchmark harness.  See the README for the CLI.
``ENGINE`` names the engine that untraced kmp, hashq, distq and ldistq
searches run on: ``"c"`` (compiled on first import) or ``"python"``.  The
shift tables of ``PatternProfile`` and ``kmp_shift_table`` are always
built in Python; the compiled searches build their own.  The bench and
corpus names are imported on first use, so a search loads neither module.
"""

from .errors import BenchmarkError, ConfigurationError, Error, GenerationError
from .hashing import MAX_Q, MOD8, MOD16, qgram_hash8, qgram_hash16
from .matchers import ALGORITHMS, SearchOutcome, SearchStats, SearchTrace, \
    distq_search, hashq_search, kmp_search, ldistq_search, naive_search
from .native import ENGINE, ENGINE_REASON
from .preprocess import PatternProfile, build_profile, kmp_shift_table

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BenchSpec", "BenchmarkError", "ConfigurationError",
    "CorpusSpec", "ENGINE", "ENGINE_REASON", "EmbedSource", "Error",
    "FibonacciSource", "FileSource", "GeneratedCorpus", "GenerationError",
    "MAX_Q", "MOD16", "MOD8", "PatternProfile", "ReportRow", "SearchOutcome",
    "SearchStats", "SearchTrace", "alphabet_bytes", "build_profile",
    "distq_search", "emit_report", "fibonacci_string", "hashq_search",
    "kmp_search", "kmp_shift_table", "ldistq_search", "load_text",
    "naive_search", "qgram_hash16", "qgram_hash8",
    "random_text_with_occurrences", "run_benchmark", "sample_patterns",
]


def __getattr__(name):
    """Import a bench or corpus name of ``__all__`` on first use, and keep
    it here: bench imports corpus, so each name loads only what it needs."""
    from importlib import import_module
    for module in ("corpus", "bench") if name in __all__ else ():
        value = getattr(import_module(f".{module}", __name__), name, None)
        if value is not None:
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
