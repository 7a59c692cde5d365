"""Branch tasks on worker threads, one BLAS thread per worker.

The branches of a bundle share no parameter, so stage 1 fits them,
stage 4 runs their forward and backward passes, and `model.predict_probs`
runs the selected branches' inference, side by side.
`synthetic.generate_synthetic` runs its scenes the same way, one task
per scene. numpy releases the
interpreter lock in its GEMMs, copies and ufuncs, so the threads overlap,
and a branch does the same arithmetic on any thread, so results do not
depend on the worker count.

A task is a whole branch, or a part of one such as stage 4's frozen tap
prefixes, not a share of one kernel. After a GEMM on two threads,
OpenBLAS's idle thread spins for 100 to 150 ms, so kernel work cannot
share the cores with multi-threaded BLAS: on 2 cores (OpenBLAS 0.3.31),
a 16 MiB elementwise pass split over two Python threads took 8.4 ms
right after such a GEMM, 7.7 ms on one thread and 5.0 ms split after
300 ms of idle.

A task may also start without a wait (`Workers.start`): stage 4 starts
the next batch's frozen prefixes while the calling thread computes the
loss, and the task then overlaps the backward's branch tasks. Such a
task still follows no 2-thread GEMM: it starts and runs inside
`branch_workers`, where every BLAS call, the calling thread's included,
runs on one thread, so no OpenBLAS thread is left spinning beside it.

The workers share one malloc arena (`_malloc_policy`, glibc only).
Blocks from the caller's mmap threshold up, the large activations, are
mapped and returned to the system when freed. The free heap top is kept
up to workers × (that threshold + one conv band buffer) before it is
trimmed: each conv unit's band buffer sits just under a 4 MiB threshold,
so a smaller trim threshold returned it after every unit and faulted it
in again on the next.

This module owns the BLAS thread count. It reads and sets it through
the loaded OpenBLAS's own `*get/set_num_threads*`; `limit_blas_threads`
applies HALLUCINET_THREADS that way. The thread budget is the count the
process already has, as HALLUCINET_THREADS, OPENBLAS_NUM_THREADS or the
usable cores set it. Inside `branch_workers`, BLAS runs one thread per
worker; with no OpenBLAS loaded (another BLAS, or not Linux), the tasks
run one after another, after one warning. numpy loads its BLAS when it is
imported, and this module imports it, so the libraries are looked up
once per process. scipy's own OpenBLAS may load after that look, since
only data generation imports scipy (`synthetic`, for `gaussian_filter`);
it stays outside this control, and nothing calls it.
"""
from __future__ import annotations

import ctypes
import functools
import warnings
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import ExitStack, contextmanager
from pathlib import Path

# a process's one look for OpenBLAS (`_openblas_symbols`) must find numpy's,
# even when its first caller has not imported numpy yet
import numpy  # noqa: F401

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


class Workers:
    """Runs zero-argument tasks on a thread pool, or in order on the
    calling thread without one.

    `workers(tasks)` runs the tasks and returns their results in task
    order. Every task ends before it returns or raises; a failure is
    re-raised after that, the first in task order. `workers.start(task)`
    starts one task without waiting and returns its future; without a
    pool the task runs at once, and the future holds its result or its
    failure. The pool takes tasks in the order they were handed to it, so
    a task may wait on the future of one handed over before it.
    """

    def __init__(self, pool: ThreadPoolExecutor | None = None):
        self._pool = pool

    def __call__(self, tasks) -> list:
        if self._pool is None:
            return [task() for task in tasks]
        futures = [self._pool.submit(task) for task in tasks]
        wait(futures)  # every task ends before a failure is raised
        return [f.result() for f in futures]  # the first failure in task order

    def start(self, task) -> Future:
        if self._pool is not None:
            return self._pool.submit(task)
        future = Future()
        try:
            future.set_result(task())
        except Exception as exc:  # held for whoever reads the result
            future.set_exception(exc)
        return future


run_in_order = Workers()  # each task in turn, on the calling thread


@functools.cache
def _openblas_symbols() -> tuple[tuple, ...]:
    """(get, set) thread-count functions of every OpenBLAS library loaded,
    found once per process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:  # not Linux
        return ()
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
    return tuple(found)  # one result for every caller: not to be changed


def _openblas_limit(symbols, threads: int) -> ExitStack:
    """Set every loaded OpenBLAS to `threads` now; leaving the returned
    context puts back the counts they had."""
    restore = ExitStack()
    for get, put in symbols:
        restore.callback(put, get())
        put(threads)
    return restore


def _blas_control():
    """(thread count, limit) of the loaded OpenBLAS, where `limit(n)` sets
    it to n threads at once and returns a context that puts back the old
    count on exit; None if no OpenBLAS is loaded."""
    symbols = _openblas_symbols()
    if not symbols:
        return None
    return max(get() for get, _ in symbols), lambda n: _openblas_limit(symbols, n)


def limit_blas_threads(threads: int) -> bool:
    """Set every loaded OpenBLAS to `threads` threads for the rest of the
    process; False if none is loaded."""
    symbols = _openblas_symbols()
    _openblas_limit(symbols, threads)
    return bool(symbols)


@functools.cache
def _mallopt():
    """glibc's `mallopt(param, value)`, or None without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _malloc_policy(mmap_threshold: int, workers: int):
    """One malloc arena for every thread; blocks of `mmap_threshold` bytes
    or more mapped and returned to the system when freed; and a free heap
    top kept up to `workers` × (`mmap_threshold` + one conv band buffer,
    `functional._BAND_BYTES`), what each worker frees at the top between
    two conv units, rather than returned and faulted in again by the next
    unit (glibc only; elsewhere nothing changes). glibc cannot read the
    settings back, so they stay for the rest of the process."""
    from .engine.functional import _BAND_BYTES  # the engine imports this module

    mallopt = _mallopt()
    if mallopt is None:
        return
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, mmap_threshold)
    mallopt(_M_TRIM_THRESHOLD, workers * (mmap_threshold + _BAND_BYTES))


@contextmanager
def branch_workers(mmap_threshold: int):
    """Yield `run`, a `Workers` that runs tasks on min(tasks, budget)
    worker threads.

    A task started with `run.start` may still run when the block ends;
    leaving the block waits for it, also when the block raises, so no
    worker outlives it. While the block runs, BLAS is held at one thread
    per worker, and malloc keeps one arena with a fixed mmap threshold
    and a trim threshold derived from it (`_malloc_policy`). The mmap
    threshold should be no larger than the largest activation, so that
    activations are returned to the system when freed rather than
    fragmenting the heap the workers share. With a budget of one thread,
    `run` is `run_in_order` and nothing is changed.
    """
    control = _blas_control()
    if control is None:
        warnings.warn("no OpenBLAS thread control is available, so branches run one at a time",
                      RuntimeWarning, stacklevel=3)
    if control is None or control[0] < 2:
        yield run_in_order
        return
    budget, limit = control
    _malloc_policy(mmap_threshold, budget)
    with limit(1), ThreadPoolExecutor(budget, thread_name_prefix="branch") as pool:
        yield Workers(pool)
