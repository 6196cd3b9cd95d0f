"""Independent tasks in forked processes, as many as the CPUs of the
affinity set hold BLAS thread pools.  Each result is computed by the same
code on the same data wherever it runs, so no result depends on how many
processes ran."""
from __future__ import annotations

import os

# The variables BLAS libraries read their thread count from, in this order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


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


def _send_results(func, share: list, sender) -> None:
    """A forked child's body: sends ``(True, func(share))`` or ``(False, exc)``."""
    try:
        result = True, func(share)
    except Exception as exc:  # raised again in the parent
        result = False, exc
    with sender:
        sender.send(result)


def fork_map(func, items) -> list:
    """``func`` on round-robin shares of ``items``, results in item order.

    Share k holds items k, k + P, k + 2P, ... of P = ``_share_count``
    shares; ``func`` takes a whole share as a list, so that it sets up once
    what the share's items have in common, and returns one result per item.
    Share 0 runs in this process and every other one in a forked child,
    which sends its results back through a one-way pipe; an exception in a
    child is raised here, and a child that ends without sending is a
    ``RuntimeError`` naming its exit code.  Every child is joined, also when
    this process's own share raises.  Fork rather than spawn: a child starts
    with the modules and the caller's state it needs, at no import cost, and
    nothing but the results is pickled.  Below two shares ``func`` takes all
    items here; ``multiprocessing`` is never imported.
    """
    items = list(items)
    shares = _share_count(len(items))
    if shares < 2:
        return func(items)
    import multiprocessing  # here, so that importing or a serial run pays nothing

    context = multiprocessing.get_context("fork")
    children, results = [], []
    try:
        for share in range(1, shares):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_send_results, args=(func, items[share::shares], sender)
            )
            child.start()
            sender.close()  # the child's copy is then the only write end
            children.append((child, receiver))
        results.append((True, func(items[::shares])))
    finally:
        for child, receiver in children:
            with receiver:
                try:
                    results.append(receiver.recv())
                except EOFError:  # the child ended without sending
                    child.join()
                    results.append((False, RuntimeError(
                        f"a forked process exited with code {child.exitcode} "
                        "before it sent its results"
                    )))
            child.join()
    out = [None] * len(items)
    for share, (ok, values) in enumerate(results):
        if not ok:
            raise values
        out[share::shares] = values
    return out
