"""When a second worker pays, and the forked worker of the robustness sweep.

``worker_fits`` is the one gate that ACT's view thread and the sweep's
forked worker share: the second worker runs only when each of the two has
as many usable CPUs of its own as BLAS runs threads. There is no option for
this: BLAS's thread setting decides it.

A second thread of this process shares the interpreter lock, which changes
hands at every numpy call. On a 2-CPU host with BLAS at one thread, two
threads running gradient evaluations of the toy model scaled 0.61–0.73× at
B = 32, 1.05–1.10× at B = 128, 1.35–1.47× at B = 256 and 1.60–1.67× at
B = 512 over running them in turn, with CPU time up to 1.9× at small B. So
the sweep, whose batches shrink as rows are fooled, shares its cells with a
forked process (``share_with_child``), which holds a lock of its own. ACT's
two views, one evaluation each at the full batch, stay on a thread: a fork
per batch costs a few ms of copy-on-write faults against views of ~10 ms.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import select
import signal
import threading
import warnings
from typing import Any, Callable, Sequence

import numpy as np

_INDEX_BYTES = 4


def blas_threads() -> int | None:
    """How many threads numpy's bundled OpenBLAS runs, None when it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)    # the copy numpy loaded, not a second one
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def worker_fits() -> bool:
    """Whether a second worker may run beside this thread.

    Only when each of the two has as many usable CPUs of its own as BLAS
    runs threads; otherwise the two workers and BLAS's own threads
    oversubscribe the cores and the work is faster in turn. An unknown BLAS
    counts as not leaving room.
    """
    threads = blas_threads()
    return threads is not None and usable_cpus() >= 2 * threads


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one (Linux), else the machine's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def share_with_child(jobs: Sequence[int], run: Callable[[int], Any],
                     done: Callable[[int, Any], None]) -> None:
    """Run ``run(j)`` exactly once for every index in ``jobs`` and hand each
    result to ``done(j, result)`` in this process.

    When ``worker_fits`` allows it, ``os.fork`` exists, this process runs no
    other thread (a forked copy of a multi-threaded process can deadlock)
    and the indices fit one atomic pipe write, a forked child and this
    process take the indices, in ``jobs``' order, from one pipe written
    before the fork. The child inherits everything ``run`` reads, so nothing
    is pickled in; it pickles back each result it made, and any exception it
    raised, and exits. Otherwise the jobs run in turn. A job that raises in
    either process empties the pipe, so the other stops after its current
    job; the exception is raised here once the child is reaped. No path
    returns with the child alive or a pipe open.
    """
    if (len(jobs) < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or len(jobs) * _INDEX_BYTES > select.PIPE_BUF or not worker_fits()):
        for j in jobs:
            done(j, run(j))
        return
    fds = list(os.pipe())       # the queue: read end, write end
    pid = None
    try:
        os.write(fds[1], b"".join(j.to_bytes(_INDEX_BYTES, "little") for j in jobs))
        os.close(fds.pop())     # so that an empty queue reads as end-of-file
        fds += os.pipe()        # the child's results: read end, write end
        with warnings.catch_warnings():
            # Python >= 3.12 warns of any other thread, BLAS's idle pool too,
            # whose own fork handlers make it safe; Python threads ruled out above
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _child(fds[0], fds[2], run)
        os.close(fds.pop())
        try:
            _take(fds[0], lambda j: done(j, run(j)))
        finally:
            # the child closes its end when it exits, also after a failure
            blob = b"".join(iter(lambda: os.read(fds[1], 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            pid = None
        if not blob:
            raise ChildProcessError(f"the forked worker ended with wait status {status} "
                                    f"and sent no results")
        results, error = pickle.loads(blob)
        for j, result in results:
            done(j, result)
        if error is not None:
            raise error
    finally:
        if pid is not None:     # interrupted before the child was reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _take(queue: int, work: Callable[[int], None]) -> None:
    """Call ``work`` on each index read from the queue pipe until it is
    empty; a failure empties it, so that the other process stops after its
    current job."""
    try:
        while index := os.read(queue, _INDEX_BYTES):
            work(int.from_bytes(index, "little"))
    except BaseException:
        while os.read(queue, select.PIPE_BUF):
            pass
        raise


def _child(queue: int, out: int, run: Callable[[int], Any]):
    """The forked worker: run jobs from the queue, send their results and
    any exception back through ``out``, and exit without returning into the
    caller's frames."""
    try:
        results, error = [], None
        try:
            _take(queue, lambda j: results.append((j, run(j))))
        except BaseException as exc:    # sent to the parent, which raises it
            error = exc
        try:
            blob = pickle.dumps((results, error))
            pickle.loads(blob)
        except Exception as exc:        # an exception or result that does not round-trip
            blob = pickle.dumps(([], RuntimeError(f"forked worker: {error!r} ({exc})")))
        with open(out, "wb", closefd=False) as pipe:
            pipe.write(blob)
    finally:
        os._exit(0)
