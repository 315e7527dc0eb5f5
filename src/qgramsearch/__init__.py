"""Byte-level exact string matching with q-gram distance shift tables.

The package bundles two distance-shift matchers (``distq_search`` and its
rolling-hash variant ``ldistq_search``), three baselines (naive, strong
border, 8-bit hash shift) and their q check (in
:mod:`~qgramsearch.matchers`), their Python engine (in
:mod:`~qgramsearch.pyengine`: the q-gram hashes, ``qgram_hashes`` not
exported, the Python builders of the shift tables and the Python search loop),
corpus generators and a small benchmark harness.  See the README for the
CLI.  ``ENGINE`` names the engine that untraced kmp, hashq, distq and
ldistq searches run on: ``"c"`` (compiled on first import) or ``"python"``.
``kmp_shift_table`` builds its list in Python; the compiled searches build
their own tables, and a ``PatternProfile`` is only a validated pattern and
q.  The bench, corpus and Python-engine names are imported on first use,
so an untraced search loads none of those modules.
"""

from .errors import BenchmarkError, ConfigurationError, Error, \
    GenerationError, load_text
from .matchers import ALGORITHMS, MAX_Q, PatternProfile, SearchOutcome, \
    SearchStats, SearchTrace, build_profile, distq_search, hashq_search, \
    kmp_search, ldistq_search, naive_search
from .native import ENGINE, ENGINE_REASON

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BenchSpec", "BenchmarkError", "ConfigurationError",
    "CorpusSpec", "ENGINE", "ENGINE_REASON", "EmbedSource", "Error",
    "FibonacciSource", "FileSource", "GeneratedCorpus", "GenerationError",
    "MAX_Q", "PatternProfile", "ReportRow", "SearchOutcome", "SearchStats",
    "SearchTrace", "alphabet_bytes", "build_profile", "distq_search",
    "emit_report", "fibonacci_string", "hashq_search", "kmp_search",
    "kmp_shift_table", "ldistq_search", "load_text", "naive_search",
    "random_text_with_occurrences", "run_benchmark", "sample_patterns",
]


def __getattr__(name):
    """Import a bench, corpus or Python-engine name of ``__all__`` on first
    use, and keep it here: bench imports corpus, so each name loads only
    what it needs."""
    from importlib import import_module
    modules = ("pyengine",) if name == "kmp_shift_table" else \
        ("corpus", "bench")
    for module in modules if name in __all__ else ():
        value = getattr(import_module(f".{module}", __name__), name, None)
        if value is not None:
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
