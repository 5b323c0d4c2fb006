"""Fixtures shared by the test modules."""

import threading

import pytest

from wgcircle import convolve, errors


@pytest.fixture
def use_cpus(monkeypatch):
    """Set the CPU count that `errors._beside` reads before it starts a worker
    thread, and that the memory model of a product reads; two to start with,
    whatever the machine."""
    def use(cpus: int) -> None:
        for mod in (errors, convolve):
            monkeypatch.setattr(mod, "_usable_cpus", lambda: cpus)

    use(2)
    return use


@pytest.fixture
def spectrum_threads(monkeypatch):
    """The thread of every operand transform of a float product."""
    threads = []
    spectrum = convolve._spectrum

    def recorded(x, size):
        threads.append(threading.get_ident())
        return spectrum(x, size)

    monkeypatch.setattr(convolve, "_spectrum", recorded)
    return threads
