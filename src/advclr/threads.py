"""When a second Python thread pays: the one gate that ACT's views and the
robustness sweep share.

The work either thread runs is mostly BLAS and numpy loops that release the
interpreter lock, so two threads overlap only when the cores are not already
busy with BLAS's own threads. There is no option for this: BLAS's thread
setting decides it.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


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
    """Whether a worker thread may run beside this one.

    Only when each of the two threads has as many usable CPUs of its own as
    BLAS runs threads; otherwise the two threads and BLAS's own oversubscribe
    the cores and the work is faster on one thread. An unknown BLAS counts as
    not leaving room.
    """
    threads = blas_threads()
    return threads is not None and usable_cpus() >= 2 * threads


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one (Linux), else the machine's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1
