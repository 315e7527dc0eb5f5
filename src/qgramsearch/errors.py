"""Exception types and the record base classes shared across the package.

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


class _Record:
    """Equality (same class only) and repr by field, in ``vars()`` order."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) \
            else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A record whose fields only ``__init__`` sets; hashed by field."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(tuple(vars(self).values()))
