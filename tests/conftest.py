"""Fixtures shared by the test modules."""

import os
import signal

import pytest

from precofdm import _fork


def assert_no_child():
    """This process has no child at all, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    """Forking a process raises ``AssertionError``."""

    def refuse():
        raise AssertionError("asked to fork a process")

    monkeypatch.setattr(_fork.os, "fork", refuse)


@pytest.fixture
def fork_always(monkeypatch):
    """``fork_map`` splits a call whatever its work estimates, as it does a
    sweep above ``_fork.FORK_BREAK_EVEN``."""
    monkeypatch.setattr(_fork, "FORK_BREAK_EVEN", 0)


@pytest.fixture
def deadline():
    """The test fails with ``TimeoutError`` if it runs past 60 s, so that a
    hang fails it.  Forked children do not inherit the alarm."""

    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
