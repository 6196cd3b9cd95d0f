"""Independent tasks in forked processes (``fork_map``).  Each result comes
from the same code on the same data wherever it runs, so no result depends
on how many processes ran."""
from __future__ import annotations

import os
import pickle
import sys

# The variables BLAS libraries read their thread count from, in this order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# The least total work, in the callers' estimates (multiply-adds), worth a
# fork, measured on S2I sweeps and SER runs (README "Processes").
FORK_BREAK_EVEN = 100e6


def _share_count(n_items: int) -> int:
    """Processes to run ``n_items`` tasks in, at most one per task: the CPUs
    of the affinity set over the BLAS threads, the first positive integer
    among ``_BLAS_THREAD_VARS``, else one per CPU (the libraries' default).
    Each process has its own BLAS threads; threads of one process would
    contend for the interpreter lock instead.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    values = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARS)
    blas_threads = next((int(v) for v in values if v.isdecimal() and int(v)), cpus)
    return max(1, min(n_items, cpus // blas_threads))


def fork_map(func, items, work) -> list:
    """``func`` on shares of ``items``, results in item order.

    ``work`` holds each item's estimated multiply-adds.  The call forks only
    if ``_share_count`` allows two processes or more and the estimates sum
    to at least ``FORK_BREAK_EVEN``; else ``func(items)`` runs here.  A
    forking call deals the items round-robin in descending estimate (a
    stable sort) into P = ``_share_count`` shares, so that they balance.
    ``func`` takes a whole share as a list, so that it sets up once what
    the share's items have in common, and returns one result per item.
    Share 0 runs here, every other one in a child of ``os.fork`` (which,
    unlike spawn, starts with the caller's modules and state) that pickles
    its results or exception (raised again here) into a pipe and leaves by
    ``os._exit``, also after a ``BaseException`` (exit code 1).  Each
    pipe is read to its end, then its child reaped, even when a share here
    raises; a child that sends nothing, or a value it cannot pickle, is a
    ``RuntimeError``.
    """
    items, work = list(items), list(work)
    if len(work) != len(items):
        raise ValueError(f"{len(work)} work estimates for {len(items)} items")
    shares = _share_count(len(items))
    if shares < 2 or sum(work) < FORK_BREAK_EVEN:
        return func(items)
    order = sorted(range(len(items)), key=work.__getitem__, reverse=True)
    dealt = [order[share::shares] for share in range(shares)]
    sys.stdout.flush()  # else each child would write this process's buffers
    sys.stderr.flush()
    children, sent = {}, []
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
                            message = True, func([items[i] for i in dealt[share]])
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
        results = [func([items[i] for i in dealt[0]])]
    finally:
        for reader, pid in children.items():
            with reader:
                data = reader.read()
            if pid is not None:
                sent.append((data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for data, code in sent:
        ok, values = pickle.loads(data) if data else (False, RuntimeError(
            f"a forked process exited with code {code} before it sent its results"))
        if not ok:
            raise values
        results.append(values)
    out = dict(zip(sum(dealt, []), sum(results, []), strict=True))
    return [out[i] for i in range(len(items))]
