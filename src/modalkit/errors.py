"""Exception hierarchy shared by every module.

Each exception carries a stable machine-readable ``code`` (e.g.
``NEGATIVE_PROB``, ``NOT_POSITIVE_DEFINITE``) so callers and the CLI can
dispatch on failure kind without parsing messages.  The class determines the
CLI exit code: usage problems exit 1, data errors exit 2, numerical errors
exit 3.
"""

from __future__ import annotations


class ModalkitError(Exception):
    """Base class for all package errors."""

    exit_code = 3

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class UsageError(ModalkitError):
    """Bad invocation: unknown flags, missing arguments, malformed grids."""

    exit_code = 1


class DataError(ModalkitError):
    """Invalid input data: bad probabilities, unknown symbols, bad shapes."""

    exit_code = 2


class NumericalError(ModalkitError):
    """Numerical failure: lost positive-definiteness, no convergence, ..."""

    exit_code = 3


def check_k(k: int, lo: int, hi: int) -> None:
    """Raise K_OUT_OF_RANGE unless lo <= k <= hi."""
    if not lo <= k <= hi:
        raise DataError("K_OUT_OF_RANGE", f"k={k} not in [{lo}, {hi}]")
