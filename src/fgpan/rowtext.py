"""Canonical decimal text of float64 rows, for the slide and checkpoint
writers, formatted on every CPU the process may use when a write is large.

Each value is written as repr gives it, the shortest decimal that reads
back as the same double. That text depends on the value alone, so it is
the same whichever process formats it. It is also the cost of a large
write: about 0.85 us per value on one core of a 2-core Xeon host, and
every %-style formatter costs the same.

A write of at least PARALLEL_VALUES values is cut into one contiguous share
of rows per CPU. The shares after the first go to a pool of forked worker
processes, one per CPU less the caller's, made once per process on its
first large write. The caller sends each worker its share over a pipe,
formats the first share itself one row at a time, then reads the workers'
texts in row order. A worker formats its whole share before it sends any
of it, so it never waits on the busy caller, and sends it in pieces of
about _SEND_VALUES values: the caller holds one piece of a worker's text
at a time. No thread is involved, so what the caller allocates for a write
comes from its own thread's malloc arena, where the next training pass can
reuse it. One write at a time uses the pool; a forked child forgets its
parent's pool.

Below PARALLEL_VALUES values, on a single CPU, where the platform cannot
fork, or where it does not say which CPUs the process may use, the rows are
formatted in the caller one at a time and no process is started.
"""

import multiprocessing
import os
import threading
from collections.abc import Iterator

import numpy as np

__all__ = ["PARALLEL_VALUES", "row_texts"]

# Values a write must hold before it is formatted on several processes.
# On a 2-core Xeon host (medians of 15 alternating runs, warm pool), a
# 2-process write took 1.7x the serial time at 1k values, 1.0x at 2k,
# 0.7-0.9x at 4k-8k and 0.58-0.65x from 32k on. At 32k one write saves about
# 19 ms, as much as forking the pool costs (about 18 ms), so a process that
# makes a single large write does not lose. Desk-scale slides (1,024 values)
# and checkpoints (1.9k) stay below and never start the pool.
PARALLEL_VALUES = 1 << 15

# values per piece of text a worker sends back (about 1.3 MB of text for
# random doubles)
_SEND_VALUES = 1 << 16

_pool: list | None = None  # (process, connection) of each worker
_pool_lock = threading.Lock()  # held by the one write that uses the pool


def _texts(values: np.ndarray, widths) -> Iterator[str]:
    """The text of each consecutive row of a flat vector, one row at a time."""
    pos = 0
    for w in widths:
        yield " ".join(map(repr, values[pos : pos + w].tolist()))
        pos += w


def _serve(conn, inherited: list) -> None:
    """A worker: for each (values, widths) share it receives, send back the
    text of its rows in pieces, until the caller closes the pipe."""
    for other in inherited:  # caller ends of its own and earlier workers' pipes
        other.close()
    while True:
        try:
            values, widths = conn.recv()
        except EOFError:
            return
        texts = list(_texts(values, widths))
        start = count = 0
        for i, w in enumerate(widths, 1):
            count += w
            if count >= _SEND_VALUES or i == len(widths):
                conn.send(texts[start:i])
                start, count = i, 0


def _forget_pool() -> None:
    """In a forked child: close the parent's pipe ends and never use them."""
    global _pool, _pool_lock
    for _, conn in _pool or ():
        conn.close()
    _pool = None
    _pool_lock = threading.Lock()  # the fork may have come mid-write


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _drop_pool() -> None:
    """Stop this process's workers and forget them; the next large write
    makes a new pool."""
    global _pool
    pool, _pool = _pool or [], None
    for proc, conn in pool:
        conn.close()
        proc.kill()
        proc.join()


def _worker_count() -> int:
    """One worker per CPU this process may run on, less the caller's; 0
    where the platform cannot fork or does not name those CPUs."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 0
    return len(os.sched_getaffinity(0)) - 1


def _get_pool() -> list | None:
    """This process's workers, forked on first use; None when there would
    be none."""
    global _pool
    if _pool is None:
        ctx = multiprocessing.get_context("fork")
        pool = []
        for _ in range(_worker_count()):
            conn, child_conn = ctx.Pipe()
            inherited = [c for _, c in pool] + [conn]
            proc = ctx.Process(target=_serve, args=(child_conn, inherited), daemon=True)
            proc.start()
            child_conn.close()
            pool.append((proc, conn))
        _pool = pool or None
    return _pool


def _pooled_texts(pool: list, values: np.ndarray, widths: list[int]) -> Iterator[str]:
    """row_texts over the pool: the caller's share first, then each
    worker's, in row order."""
    shares = len(pool) + 1
    ends = np.cumsum(widths)
    offset = [0, *ends.tolist()]  # value offset of each row's start
    targets = values.size * np.arange(1, shares) / shares
    cuts = [0, *np.searchsorted(ends, targets, side="right").tolist(), len(widths)]
    sent = []  # (connection, end row) of each share a worker took
    row = cuts[1]  # the first row no worker has sent back yet
    try:
        try:
            for (_, conn), lo, hi in zip(pool, cuts[1:-1], cuts[2:]):
                if lo < hi:
                    conn.send((values[offset[lo] : offset[hi]], widths[lo:hi]))
                    sent.append((conn, hi))
        except OSError:  # a worker died: the caller formats every share
            _drop_pool()
        yield from _texts(values, widths[: cuts[1]])
        for conn, hi in sent:
            while row < hi and _pool is pool:
                try:
                    texts = conn.recv()
                except (EOFError, OSError):
                    _drop_pool()
                    break
                row += len(texts)
                yield from texts
        yield from _texts(values[offset[row] :], widths[row:])
    finally:
        if sent and _pool is pool and row < sent[-1][1]:
            _drop_pool()  # closed early: text is left unread in the pipes


def row_texts(values: np.ndarray, widths: list[int]) -> Iterator[str]:
    """The canonical text of each row of values, a flat float64 vector cut
    into consecutive rows of the given widths (summing to its size), in row
    order: each value's repr, joined by single spaces.

    A write of at least PARALLEL_VALUES values is formatted on every CPU
    the process may use (see the module docstring); the text is the same.
    One write at a time uses the pool: a large write that starts while
    another is unfinished, in any thread, formats its rows in the caller.
    The rows a worker that died did not send are formatted by the caller,
    and the next large write makes a new pool.
    """
    lock = _pool_lock  # the one this write holds, even if a fork replaces it
    if values.size < PARALLEL_VALUES or not lock.acquire(blocking=False):
        yield from _texts(values, widths)
        return
    try:
        pool = _get_pool()
        if pool is None:
            yield from _texts(values, widths)
        else:
            yield from _pooled_texts(pool, values, widths)
    finally:
        lock.release()
