"""Exception types, the process-wide memory budget guard, and `_beside`, the
one place a worker thread of the package starts."""

from __future__ import annotations

import os
import threading


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


_workers = 0  # package workers running now, in the whole process: the cap is on its threads
_workers_lock = threading.Lock()


def _beside(fn, *args):
    """A callable that returns fn(*args), or raises what it raised.

    While fewer than `_usable_cpus() - 1` package workers run, fn starts at
    once on a worker thread, so it runs beside what the caller does next;
    otherwise (on one CPU, or while every spare CPU holds a worker) no thread
    starts and fn runs on the caller when its result is asked for.  Either way
    the result is the same, and the threads of the package never outnumber the
    CPUs.  A worker frees its slot when fn returns or raises, before its result
    can be asked for.  Every worker thread of the package starts here, and fn
    must be private numpy code: every public function stays on the calling
    thread, where a span tracer keeps one stack."""
    global _workers
    with _workers_lock:
        start = _workers < _usable_cpus() - 1
        _workers += start
    if not start:
        return lambda: fn(*args)
    from concurrent.futures import ThreadPoolExecutor  # not at import: it would slow every CLI start

    def work():
        global _workers
        try:
            return fn(*args)
        finally:
            with _workers_lock:
                _workers -= 1

    pool = ThreadPoolExecutor(1)
    future = pool.submit(work)
    pool.shutdown(wait=False)  # the thread ends once fn returns
    return future.result
