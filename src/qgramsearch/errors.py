"""Exception types shared across the package.

Every rejected input (an empty pattern, a q outside [1, min(m, 8)], a hash
window whose length is not q, a bad CLI or benchmark setting) raises
:class:`ConfigurationError`, a ``ValueError``; the CLI exits 2 on it.  Plain
``ValueError`` is left for ``emit_report`` given no rows.  The other
subclasses mark the run-time failures, on which the CLI exits 1.
"""


class Error(Exception):
    """Base class for qgramsearch errors."""


class ConfigurationError(Error, ValueError):
    """An invalid parameter or parameter combination (q out of range, ...)."""


class GenerationError(Error, RuntimeError):
    """Corpus generation exhausted its retry budget."""


class BenchmarkError(Error, RuntimeError):
    """A benchmark-time invariant failed, e.g. matchers disagree on counts."""
