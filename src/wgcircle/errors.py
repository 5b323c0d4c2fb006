"""Exception types and the process-wide memory budget guard."""

from __future__ import annotations

import os


class WgcircleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WgcircleError, ValueError):
    """An argument lies outside the range an operation is defined on."""


class ConvergenceError(WgcircleError, RuntimeError):
    """An iterative solver failed to reach its tolerance within its budget."""


class InternalConsistencyError(WgcircleError, RuntimeError):
    """Two independent computation routes disagree beyond tolerance."""


class AliasingError(WgcircleError, ValueError):
    """Evaluation grid is too small for the bandwidth of the spectrum."""


class ResourceError(WgcircleError, MemoryError):
    """Requested computation exceeds the configured memory budget."""


class TableLookupError(WgcircleError, LookupError):
    """A required table entry is absent (a LookupError, not a KeyError, whose
    str() would quote the message)."""


class TableParseError(WgcircleError, ValueError):
    """A shipped or user-supplied data file is malformed."""


MEMORY_BUDGET_ENV = "WGCIRCLE_MEM_BYTES"
_DEFAULT_BUDGET = 4 * 1024**3


def memory_budget_bytes() -> int:
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceError(f"{MEMORY_BUDGET_ENV} must be an integer byte count, got {raw!r}") from exc
    if value <= 0:
        raise ResourceError(f"{MEMORY_BUDGET_ENV} must be positive, got {value}")
    return value


def ensure_memory(nbytes: int, what: str) -> None:
    """Raise ResourceError when an allocation would overrun the budget."""
    budget = memory_budget_bytes()
    if nbytes > budget:
        raise ResourceError(f"{what} needs {nbytes} bytes; budget is {budget} (set {MEMORY_BUDGET_ENV} to raise it)")
