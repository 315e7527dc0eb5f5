"""Exception types, the record base, the int and bytes checks shared
across the package, and its one file reader, ``load_text``, which lives
here so that a search reads its files without loading the corpus module.

Every rejected input (an empty pattern, a q outside [1, min(m, 8)], a
hash width other than 8 or 16 bits, a bad CLI or benchmark setting) raises
:class:`ConfigurationError`, a ``ValueError``; the CLI exits 2 on it.
The other subclasses mark the run-time failures, on which the CLI exits 1.
"""

import os


class Error(Exception):
    """Base class for qgramsearch errors."""


class ConfigurationError(Error, ValueError):
    """An invalid parameter or parameter combination (q out of range, ...)."""


class GenerationError(Error, RuntimeError):
    """Corpus generation exhausted its retry budget."""


class BenchmarkError(Error, RuntimeError):
    """A benchmark-time invariant failed, e.g. matchers disagree on counts."""


def _require_ints(what: str, *values, least: int | None = None) -> None:
    """Raise on a value that is not an int (a bool counts as one), or that
    is below ``least`` when that is given."""
    for value in values:
        if not isinstance(value, int):
            raise ConfigurationError(f"{what} must be an int, got {value!r}")
        if least is not None and value < least:
            raise ConfigurationError(f"{what} must be >= {least}, got {value}")


def _as_bytes(value) -> bytes:
    """``bytes(value)``, but the compiled engine's ``TypeError`` on an int
    (a bool counts as one), which ``bytes`` reads as that many zero bytes."""
    if isinstance(value, int):
        raise TypeError("a bytes-like object is required, not "
                        f"{type(value).__name__!r}")
    return bytes(value)


def _check_load(path, strip_newlines) -> str | bytes:
    """``os.fspath(path)``, raising ConfigurationError on a non-path such as
    an int, which ``open`` would take as a file descriptor, and then on a
    ``strip_newlines`` that is not a bool."""
    try:
        path = os.fspath(path)
    except TypeError:
        raise ConfigurationError("path must be a str, bytes or os.PathLike, "
                                 f"got {path!r}") from None
    if not isinstance(strip_newlines, bool):
        raise ConfigurationError(
            f"strip_newlines must be a bool, got {strip_newlines!r}")
    return path


def load_text(path, *, strip_newlines: bool = False) -> bytes:
    """Read a file as raw bytes, optionally dropping line-feed bytes."""
    with open(_check_load(path, strip_newlines), "rb") as fh:
        data = fh.read()
    return data.replace(b"\n", b"") if strip_newlines else data


class _Record:
    """Fields that only ``__init__`` sets, through ``self.__dict__``; equal
    only to its own class; hash and repr by field, in ``vars()`` order."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) \
            else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"
