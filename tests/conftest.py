"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from precofdm import _fork


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin(cpus, **threads)``: the affinity set and BLAS thread variables
    ``fork_map`` reads, so that it runs ``min(items, cpus // threads)``
    processes whatever the environment of the test run."""

    def pin(cpus, **threads):
        for name in _fork._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in threads.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(
            _fork.os, "sched_getaffinity", lambda pid: set(range(cpus))
        )

    return pin


@pytest.fixture
def no_fork(monkeypatch):
    """Asking for a process context raises ``AssertionError``."""

    def refuse(method=None):
        raise AssertionError("asked for a process context")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
