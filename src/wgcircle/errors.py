"""Exception types and the process-wide memory budget guard."""

from __future__ import annotations

import os


class WgcircleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WgcircleError, ValueError):
    """An input lies outside what an operation is defined on: an argument out
    of range, a grid too small for its spectrum, a malformed table or an
    absent table entry."""


class InternalConsistencyError(WgcircleError, RuntimeError):
    """The program contradicts itself: two independent computation routes
    disagree beyond tolerance, or a solver on a bracket that holds its root
    did not converge."""


class ResourceError(WgcircleError, MemoryError):
    """Requested computation exceeds the configured memory budget."""


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
