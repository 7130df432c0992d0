"""Slide and checkpoint text on every CPU the process may use, in both
directions: writes format float64 rows as canonical decimal text, reads
parse whole files. Both use one pool of forked worker processes, one per
CPU less the caller's, made once per process on its first large write or
read, and one protocol. A write or read is cut into shares of calls, each
picklable and taking no arguments. The caller sends each worker a share,
runs the first share itself, then takes every call's result in order. A
worker runs its whole share before it sends anything back, so it never
waits on the busy caller, then sends each result pickled, or None for a
call that raised. A call that raised, or whose result a worker that died
did not send, is the caller's to make again. One write or read at a time
uses the pool; a forked child forgets its parent's pool. Worker calls make
no BLAS call: a worker may be forked after BLAS threads exist.

No thread is involved: the caller unpickles every result itself, so what
it allocates comes from its own thread's malloc arena, where the next
training pass can reuse it. multiprocessing.Pool and ProcessPoolExecutor
unpickle results on a helper thread, in another arena, and Pool hangs when
a worker is killed.

Writing. Each value is written as repr gives it, the shortest decimal that
reads back as the same double. That text depends on the value alone, so it
is the same whichever process formats it. It is also the cost of a large
write: about 0.85 us per value on one core of a 2-core Xeon host, and every
%-style formatter costs the same. A write of at least PARALLEL_VALUES
values is cut into one contiguous share of rows per CPU, and each share
into calls of about _SEND_VALUES values that give their rows' texts: the
caller holds one call's text at a time. Checkpoints, prototype files and
predictions are written through atomic_text, so a write that fails or is
interrupted leaves the file it would replace as it was (slides are
written in place, see data.save_slide).

Reading. A batch of files holding at least PARALLEL_BYTES bytes is split
over the caller and the workers, largest file first to the share with the
fewest bytes. A worker reads a file with the loader registered for its
kind, and its result comes back pickled, to be rebuilt through its
constructor, with its checks (SlideRecord, ModelParams). The caller reads
its own share meanwhile with its own loader. A file whose read raised
anywhere, or that a worker that died did not send, is read by the caller's
loader when its result is taken, so its error is the serial one and comes
in the caller's order.

Below PARALLEL_VALUES values or PARALLEL_BYTES bytes, on a single CPU, where
the platform cannot fork, where it does not say which CPUs the process may
use, or while another write or read uses the pool, the caller does all the
work and no process is started.
"""

import contextlib
import multiprocessing
import os
import secrets
import threading
from collections.abc import Callable, Iterator
from functools import partial
from itertools import chain

import numpy as np

__all__ = ["PARALLEL_BYTES", "PARALLEL_VALUES", "atomic_text", "read_files", "reader",
           "row_texts"]

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

# values per call of a write (about 1.3 MB of text for random doubles)
_SEND_VALUES = 1 << 16

_pool: list | None = None  # (process, connection) of each worker
_pool_lock = threading.Lock()  # held by the one write or read that uses the pool

# kind -> loader of each kind of file a worker can read
_readers: dict[str, Callable] = {}


def reader(kind: str, load: Callable) -> None:
    """Let workers read files of a kind with load(path, **kwargs), whose
    result must pickle."""
    _readers[kind] = load


def _read(kind: str, *args, **kwargs):
    """A read call: the file read with the loader registered for its kind in
    the process that runs it."""
    return _readers[kind](*args, **kwargs)


def _texts(values: np.ndarray, widths) -> Iterator[str]:
    """The text of each consecutive row of a flat vector, one row at a time."""
    pos = 0
    for w in widths:
        yield " ".join(map(repr, values[pos : pos + w].tolist()))
        pos += w


def _format(values: np.ndarray, widths: list[int]) -> list[str]:
    """A write call: the text of each consecutive row of a flat vector."""
    return list(_texts(values, widths))


def _run(call: Callable):
    """call's result, or None if it raised (its caller makes it again)."""
    try:
        return call()
    except Exception:
        return None


def _serve(conn, inherited: list) -> None:
    """A worker: run each share of calls it receives, then send back every
    call's result, until the caller closes the pipe."""
    for other in inherited:  # caller ends of its own and earlier workers' pipes
        other.close()
    while True:
        try:
            calls = conn.recv()
        except EOFError:
            return
        for result in [_run(call) for call in calls]:
            conn.send(result)


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


def _farm(pool: list, shares: list[list[Callable]]) -> Iterator:
    """Every call's result, share by share in order; None for a call that
    raised, or whose result a worker that died did not send. shares[0] is
    run here, once each later share is sent to its worker. Closed while
    results are left in the pipes, it drops the pool, so that no later
    write or read takes them as its own."""
    # results asked of the workers and not yet received: counted, since a
    # caller may stop taking results once it has every one it needs
    unread = 0
    try:
        try:
            for (_, conn), share in zip(pool, shares[1:]):
                conn.send(share)
                unread += len(share)
        except OSError:  # a worker died: the caller makes every call
            _drop_pool()
        yield from map(_run, shares[0])
        for (_, conn), share in zip(pool, shares[1:]):
            for _ in share:
                result = None
                if _pool is pool:
                    unread -= 1
                    try:
                        result = conn.recv()
                    except (EOFError, OSError):  # the worker died
                        _drop_pool()
                    except Exception:  # its constructor refused it here
                        pass
                yield result
    finally:
        if unread and _pool is pool:
            _drop_pool()


def _pooled_texts(pool: list, values: np.ndarray, widths: list[int]) -> Iterator[str]:
    """row_texts over the pool: one contiguous share of rows per process,
    the caller's first, each cut into calls of about _SEND_VALUES values."""
    ends = np.cumsum(widths)
    offset = [0, *ends.tolist()]  # value offset of each row's start

    def cut(lo: int, hi: int, marks) -> list[tuple[int, int]]:
        """Rows lo to hi, cut after the last row that ends by each mark."""
        bounds = [lo, *np.searchsorted(ends, marks, side="right").tolist(), hi]
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]

    n = len(pool) + 1
    shares = [
        [partial(_format, values[offset[a] : offset[b]], widths[a:b])
         for a, b in cut(lo, hi, range(offset[lo] + _SEND_VALUES, offset[hi], _SEND_VALUES))]
        for lo, hi in cut(0, len(widths), values.size * np.arange(1, n) / n)
    ]
    for call, texts in zip(chain.from_iterable(shares), _farm(pool, shares)):
        yield from call() if texts is None else texts


@contextlib.contextmanager
def atomic_text(path):
    """A UTF-8, LF text file to write in place of path. The text goes to a
    new, uniquely named temporary file beside path, which os.replace moves
    onto path once the block ends without an exception. On any exception,
    KeyboardInterrupt included, the temporary file is removed and path is
    left as it was. A symlinked path is written through: the file it
    resolves to is replaced and the link kept. Nothing is fsynced: the
    replace is atomic for other processes, not durable across a crash of
    the machine."""
    path = os.path.realpath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")  # never another's file
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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


def _pooled_reads(pool: list, reads: list, sizes: list[int], results: list) -> None:
    """read_files over the pool: fill results with what the caller and the
    workers read."""
    loads = [0] * (len(pool) + 1)  # bytes per share; the last is the caller's
    shares = [[] for _ in loads]
    for i in sorted(range(len(reads)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += sizes[i]
    shares.insert(0, shares.pop())  # the caller's runs first
    calls = [[reads[i][1] for i in shares[0]]] + [
        [partial(_read, reads[i][0], *reads[i][1].args, **reads[i][1].keywords) for i in share]
        for share in shares[1:]
    ]
    for i, value in zip(chain.from_iterable(shares), _farm(pool, calls)):
        if value is not None:
            results[i] = lambda value=value: value


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
