"""Branch tasks on worker threads, one BLAS thread per worker.

The branches of a bundle share no parameter, so stage 1 fits them, and
stage 4 runs their forward and backward passes, side by side. numpy
releases the interpreter lock in its GEMMs, copies and ufuncs, so the
threads overlap, and a branch does the same arithmetic on any thread, so
results do not depend on the worker count.

The thread budget is the BLAS thread count the process already has, as
HALLUCINET_THREADS (applied through threadpoolctl), OPENBLAS_NUM_THREADS
or the usable cores set it. Inside `branch_workers`, BLAS runs one
thread per worker, capped through threadpoolctl where it is installed
and through the loaded OpenBLAS's own `*set_num_threads*` where it is
not; with neither, the tasks run one after another, after one warning.
"""
from __future__ import annotations

import ctypes
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

# glibc mallopt parameters (malloc.h)
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def run_in_order(tasks) -> list:
    """Run each zero-argument task in turn; return their results."""
    return [task() for task in tasks]


def _openblas_symbols() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS library loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:  # not Linux
        return []
    paths = sorted({line.split()[-1] for line in maps
                    if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for name in ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}",
                     "scipy_openblas_{}64_"):
            get = getattr(lib, name.format("get_num_threads"), None)
            put = getattr(lib, name.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


@contextmanager
def _openblas_limit(symbols, threads: int):
    saved = [get() for get, _ in symbols]
    for _, put in symbols:
        put(threads)
    try:
        yield
    finally:
        for (_, put), n in zip(symbols, saved):
            put(n)


def _blas_control():
    """(thread count, limit) of the loaded BLAS, where `limit(n)` is a
    context that holds it at n threads; None if nothing can set it."""
    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        counts = [lib["num_threads"] for lib in threadpoolctl.threadpool_info()
                  if lib["user_api"] == "blas"]
        if counts:
            return max(counts), lambda n: threadpoolctl.threadpool_limits(n, user_api="blas")
    symbols = _openblas_symbols()
    if symbols:
        return max(get() for get, _ in symbols), lambda n: _openblas_limit(symbols, n)
    return None


def _malloc_policy(mmap_threshold: int):
    """One malloc arena for every thread, and blocks of `mmap_threshold`
    bytes or more mapped and returned to the system when freed (glibc
    only; elsewhere nothing changes). glibc cannot read the settings
    back, so they stay for the rest of the process."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, mmap_threshold)


def _run_on(pool: ThreadPoolExecutor, tasks) -> list:
    futures = [pool.submit(task) for task in tasks]
    wait(futures)  # every task ends before a failure is raised
    return [f.result() for f in futures]  # the first failure in task order


@contextmanager
def branch_workers(mmap_threshold: int):
    """Yield `run(tasks)`, which runs zero-argument tasks on min(tasks,
    budget) worker threads and returns their results in task order.

    Every task finishes before `run` returns or raises; a failure is
    re-raised after that, the first in task order. While the block runs,
    BLAS is held at one thread per worker, and malloc keeps one arena with
    a fixed mmap threshold (`_malloc_policy`), which should be no larger
    than the largest activation, so that activations are returned to the
    system when freed rather than fragmenting the heap the workers share.
    With a budget of one thread, `run` is `run_in_order` and nothing is
    changed.
    """
    control = _blas_control()
    if control is None:
        warnings.warn("neither threadpoolctl nor an OpenBLAS thread control is available, "
                      "so branches run one at a time", RuntimeWarning, stacklevel=3)
    if control is None or control[0] < 2:
        yield run_in_order
        return
    budget, limit = control
    _malloc_policy(mmap_threshold)
    with limit(1), ThreadPoolExecutor(budget, thread_name_prefix="branch") as pool:
        yield lambda tasks: _run_on(pool, tasks)
