"""Slide and checkpoint text on every CPU the process may use, in both
directions: writes format float64 rows as canonical decimal text, reads
parse whole files. Both use one pool of forked worker processes, one per
CPU less the caller's, made once per process on its first large write or
read. One write or read at a time uses the pool; a forked child forgets its
parent's pool.

Writing. Each value is written as repr gives it, the shortest decimal that
reads back as the same double. That text depends on the value alone, so it
is the same whichever process formats it. It is also the cost of a large
write: about 0.85 us per value on one core of a 2-core Xeon host, and every
%-style formatter costs the same. A write of at least PARALLEL_VALUES
values is cut into one contiguous share of rows per CPU. The caller sends
each worker its share over a pipe, formats the first share itself one row
at a time, then reads the workers' texts in row order. A worker formats
its whole share before it sends any of it, so it never waits on the busy
caller, and sends it in pieces of about _SEND_VALUES values: the caller
holds one piece of a worker's text at a time. No thread is involved, so
what the caller allocates for a write comes from its own thread's malloc
arena, where the next training pass can reuse it.

Reading. A batch of files holding at least PARALLEL_BYTES bytes is split
over the caller and the workers, largest file first to the share with the
fewest bytes. Each worker reads its whole share with the loader registered
for the file's kind, then sends back each result's arrays as raw bytes,
which the caller receives into arrays it allocates. The caller reads its
own share meanwhile with its own loader, and rebuilds each worker's result
through the result's constructor, with its checks, when the result is
taken. A file whose read raised anywhere, or that a worker that died did
not send, is read by the caller's loader when its result is taken, so its
error is the serial one and comes in the caller's order. Worker code calls
no BLAS routine: a worker may be forked after BLAS threads exist.

Below PARALLEL_VALUES values or PARALLEL_BYTES bytes, on a single CPU, where
the platform cannot fork, where it does not say which CPUs the process may
use, or while another write or read uses the pool, the caller does all the
work and no process is started.
"""

import multiprocessing
import os
import threading
from collections.abc import Callable, Iterator
from functools import partial

import numpy as np

__all__ = ["PARALLEL_BYTES", "PARALLEL_VALUES", "read_files", "reader", "row_texts"]

# Values a write must hold before it is formatted on several processes.
# On a 2-core Xeon host (medians of 15 alternating runs, warm pool), a
# 2-process write took 1.7x the serial time at 1k values, 1.0x at 2k,
# 0.7-0.9x at 4k-8k and 0.58-0.65x from 32k on. At 32k one write saves about
# 19 ms, as much as forking the pool costs (about 18 ms), so a process that
# makes a single large write does not lose. Desk-scale slides (1,024 values)
# and checkpoints (1.9k) stay below and never start the pool.
PARALLEL_VALUES = 1 << 15

# Bytes a batch of files must hold before it is read on several processes.
# On the same host (medians of 15 alternating runs), 2-process reads of
# batches of slide files took 0.83x the serial time at 0.08 MB and 0.54-0.59x
# from 1.35 MB on with a warm pool; a read that forks the pool first took
# 0.78x at 1.35 MB and 0.67x at 5.4 MB. At 2 MiB a read saves about 27 ms,
# more than forking the pool costs. A desk-scale batch (40 slide files of
# about 21 KB and a 40 KB checkpoint) stays below and never starts the pool.
PARALLEL_BYTES = 1 << 21

# values per piece of text a worker sends back (about 1.3 MB of text for
# random doubles)
_SEND_VALUES = 1 << 16

_pool: list | None = None  # (process, connection) of each worker
_pool_lock = threading.Lock()  # held by the one write or read that uses the pool

# kind -> (load, fields, build) of each kind of file a worker can read
_readers: dict[str, tuple[Callable, Callable, Callable]] = {}


def reader(kind: str, load: Callable, fields: Callable, build: Callable) -> None:
    """Let workers read files of a kind: load(path, **kwargs) reads one,
    fields(result) gives the keyword arguments build takes to make the
    result again, and those that are arrays cross the pipe as raw bytes."""
    _readers[kind] = (load, fields, build)


def _texts(values: np.ndarray, widths) -> Iterator[str]:
    """The text of each consecutive row of a flat vector, one row at a time."""
    pos = 0
    for w in widths:
        yield " ".join(map(repr, values[pos : pos + w].tolist()))
        pos += w


def _format_share(conn, values: np.ndarray, widths: list[int]) -> None:
    """In a worker: send back the text of a share of rows, in pieces."""
    texts = list(_texts(values, widths))
    start = count = 0
    for i, w in enumerate(widths, 1):
        count += w
        if count >= _SEND_VALUES or i == len(widths):
            conn.send(texts[start:i])
            start, count = i, 0


def _read_share(conn, files: list[tuple]) -> None:
    """In a worker: read every (kind, args, kwargs) file of a share, then
    send back each one's fields, in share order: a header of the kind, the
    fields that are not arrays and the (name, dtype, shape) of those that
    are, then each array's bytes. A file whose read raised is sent as None."""
    results = []
    for kind, args, kwargs in files:
        load, fields, _ = _readers[kind]
        try:
            results.append((kind, fields(load(*args, **kwargs))))
        except Exception:  # the caller reads the file again and raises there
            results.append(None)
    for result in results:
        if result is None:
            conn.send(None)
            continue
        kind, values = result
        arrays = {k: v for k, v in values.items() if isinstance(v, np.ndarray)}
        rest = {k: v for k, v in values.items() if k not in arrays}
        conn.send((kind, rest, [(k, a.dtype.str, a.shape) for k, a in arrays.items()]))
        for a in arrays.values():
            conn.send_bytes(np.ascontiguousarray(a).reshape(-1))


def _serve(conn, inherited: list) -> None:
    """A worker: run each (task, args) it receives, a task sending its
    results back over conn, until the caller closes the pipe."""
    for other in inherited:  # caller ends of its own and earlier workers' pipes
        other.close()
    while True:
        try:
            task, args = conn.recv()
        except EOFError:
            return
        task(conn, *args)


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
    """Stop this process's workers and forget them; the next large write or
    read makes a new pool."""
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
                    conn.send((_format_share, (values[offset[lo] : offset[hi]], widths[lo:hi])))
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
    One write or read at a time uses the pool: a large write that starts
    while another is unfinished, in any thread, formats its rows in the
    caller. The rows a worker that died did not send are formatted by the
    caller, and the next large write makes a new pool.
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


def _file_bytes(read: partial) -> int:
    try:
        return os.stat(read.args[0]).st_size
    except OSError:  # its loader names the fault when its result is taken
        return 0


def _receive(conn) -> partial | None:
    """One result a worker sent: build over its fields, the arrays received
    into new ones; None for a file whose read raised there."""
    header = conn.recv()
    if header is None:
        return None
    kind, fields, arrays = header
    for name, dtype, shape in arrays:
        fields[name] = np.empty(shape, dtype)
        # into a flat view: recv_bytes_into sizes a buffer by its first axis
        conn.recv_bytes_into(fields[name].reshape(-1))
    return partial(_readers[kind][2], **fields)


def _pooled_reads(pool: list, reads: list, sizes: list[int], results: list) -> None:
    """read_files over the pool: fill results with what the caller and the
    workers read."""
    loads = [0] * (len(pool) + 1)  # bytes per share; the last is the caller's
    shares = [[] for _ in loads]
    for i in sorted(range(len(reads)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    sent = []  # (connection, file indices) of each share a worker took
    done = False
    try:
        try:
            for (_, conn), share in zip(pool, shares):
                if share:
                    files = [(reads[i][0], reads[i][1].args, reads[i][1].keywords) for i in share]
                    conn.send((_read_share, (files,)))
                    sent.append((conn, share))
        except OSError:  # a worker died: the caller reads every file
            _drop_pool()
        for i in shares[-1]:
            try:
                value = reads[i][1]()
            except Exception:  # read again when taken, to raise in serial order
                continue
            results[i] = lambda value=value: value
        for conn, share in sent:
            for i in share:
                if _pool is not pool:
                    break
                try:
                    built = _receive(conn)
                except (EOFError, OSError):
                    _drop_pool()
                    break
                if built is not None:
                    results[i] = built
        done = True
    finally:
        if sent and not done and _pool is pool:
            _drop_pool()  # stopped early: results are left unread in the pipes


def read_files(reads: list[tuple[str, partial]]) -> list[Callable]:
    """Read a batch of files; one zero-argument callable per read, in the
    reads' order, that returns its file's result or raises its error.

    Each read is (kind, load), load being the caller's loader as a partial
    over the file's path and the loader's keyword arguments. A batch of at
    least PARALLEL_BYTES bytes is read on every CPU the process may use
    (see the module docstring): a worker reads a file of that kind with the
    loader reader() registered, from the same arguments, and the caller
    uses load, looked up by its own caller, for its share. Any file no
    process read, or whose read raised, is read by load when its result is
    taken, so a batch's results and errors are the serial ones.
    """
    results = [load for _, load in reads]
    sizes = [_file_bytes(load) for _, load in reads]
    lock = _pool_lock  # the one this read holds, even if a fork replaces it
    if sum(sizes) < PARALLEL_BYTES or not lock.acquire(blocking=False):
        return results
    try:
        pool = _get_pool()
        if pool is not None:
            _pooled_reads(pool, reads, sizes, results)
    finally:
        lock.release()
    return results
