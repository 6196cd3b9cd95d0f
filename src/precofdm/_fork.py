"""Independent tasks in forked processes, as many as the CPUs of the affinity
set hold BLAS thread pools, when the tasks' estimated work pays for the
forks.  Each result is computed by the same code on the same data wherever
it runs, so no result depends on how many processes ran."""
from __future__ import annotations

import os
import pickle
import sys

# The variables BLAS libraries read their thread count from, in this order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# The least total work, in the callers' estimates (multiply-adds), worth a
# fork: a fork and reap of a 60 MB process costs about 4 ms, and on 2 CPUs at
# one BLAS thread, S2I sweeps of 78 and 104 M took as long forked as in one
# process (N = 72 and 80), of 162 M 15% less forked (N = 88).
FORK_BREAK_EVEN = 100e6


def _share_count(n_items: int) -> int:
    """Processes to run ``n_items`` tasks in: CPUs over BLAS threads.

    Each process runs its BLAS calls on its own threads, so processes times
    BLAS threads stays within the CPUs this process may use; threads of one
    process would contend for the interpreter lock instead.  The BLAS
    thread count is the first positive integer among ``_BLAS_THREAD_VARS``,
    else one per CPU, the libraries' default.  At most one process per task.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    values = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARS)
    blas_threads = next((int(v) for v in values if v.isdecimal() and int(v)), cpus)
    return max(1, min(n_items, cpus // blas_threads))


def fork_map(func, items, work=None) -> list:
    """``func`` on round-robin shares of ``items``, results in item order.

    Share k holds items k, k + P, ... of P = ``_share_count`` shares; ``func``
    takes a whole share as a list, so that it sets up once what the share's
    items have in common, and returns one result per item.  Share 0 runs
    here, every other one in a child of ``os.fork`` (which, unlike spawn,
    starts with the caller's modules and state) that pickles its results or
    exception into a pipe and leaves by ``os._exit``.  Each pipe is read to
    its end, then its child reaped, even when a share here raises; a child
    that sends nothing, or a value it cannot pickle, is a ``RuntimeError``.
    ``work``, if given, estimates each item's cost; when its total is below
    ``FORK_BREAK_EVEN``, the whole call runs here as one share.
    """
    items = list(items)
    shares = _share_count(len(items))
    if shares < 2 or (work is not None and sum(work) < FORK_BREAK_EVEN):
        return func(items)
    sys.stdout.flush()  # else each child would write this process's buffers
    sys.stderr.flush()
    children, sent, out = {}, [], [None] * len(items)
    try:
        for share in range(1, shares):
            reader, writer = map(open, os.pipe(), ("rb", "wb"))
            children[reader] = None  # no child to reap if the fork fails
            with writer:  # once forked, the child's copy is the only write end
                children[reader] = pid = os.fork()
                if pid == 0:  # the child, which never leaves this branch
                    try:
                        reader.close()
                        try:
                            message = True, func(items[share::shares])
                        except Exception as exc:  # raised again in the parent
                            message = False, exc
                        try:
                            data = pickle.dumps(message)
                        except Exception as exc:
                            error = ("a forked process cannot pickle "
                                     f"{message[1]!r:.200}: {exc!r}")
                            data = pickle.dumps((False, RuntimeError(error)))
                        writer.write(data)
                        writer.close()
                        sys.stdout.flush()
                        sys.stderr.flush()
                        os._exit(0)
                    finally:  # also on any BaseException
                        os._exit(1)
        out[::shares] = func(items[::shares])
    finally:
        for reader, pid in children.items():
            with reader:
                data = reader.read()
            if pid is not None:
                sent.append((data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for share, (data, code) in enumerate(sent, 1):
        ok, values = pickle.loads(data) if data else (False, RuntimeError(
            f"a forked process exited with code {code} before it sent its results"))
        if not ok:
            raise values
        out[share::shares] = values
    return out
