"""One runner for grids of independent, seeded fits.

`run_grid(fn, jobs)` is `[fn(job) for job in jobs]`, computed by this
process and forked workers, one process per CPU this process may use and
never more than there are jobs. Every probe and sweep that fits a grid
goes through it. A fit is a pure function of its job, so a pooled run
returns the same bits as a serial one, and writes the same report bytes.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable, Optional, Sequence

# True while this process runs grid jobs, as a forked worker or as the
# caller of run_grid; a grid a job starts runs serially
_in_job = False

_OPENBLAS_SIGNATURES = {"set_num_threads": ([ctypes.c_int], None), "get_num_threads": ([], ctypes.c_int)}


def openblas(name: str) -> Optional[Callable]:
    """OpenBLAS's `set_num_threads` or `get_num_threads` from the library
    numpy loaded, or None when numpy's BLAS is not an OpenBLAS that exports
    it (or the process has no /proc/self/maps to find it in)."""
    argtypes, restype = _OPENBLAS_SIGNATURES[name]
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


def run_grid(fn: Callable, jobs: Sequence) -> list:
    """`[fn(job) for job in jobs]`, in job order, computed by this process
    and min(CPUs this process may use, len(jobs)) - 1 forked workers.

    This process and each worker take the next job index from a shared
    counter until none is left, so a few costly jobs do not leave anyone
    idle; a worker sends its results back once, at the end, or as soon as
    a job of its raises. This process stops taking jobs once any worker's
    pipe can be read, so a worker that failed is seen after the job this
    process is on, not after the rest of the grid. Every job runs with
    OpenBLAS on one thread: at its default of one thread per CPU, the BLAS
    threads of the workers and of this process would contend for the same
    CPUs. This process's own thread count is restored when the call returns
    or raises. A job's exception is raised again here, and no
    worker outlives the call, also when a job raises, here or in a worker.

    Runs serially, in this process, when there is one CPU or one job, when
    the caller is itself a grid job, when another Python thread is alive
    (a forked child gets a copy of any lock such a thread holds, held by
    no one), or when numpy's BLAS is not an OpenBLAS whose thread count can
    be read and set.

    The start method is `fork`, named explicitly since the platform
    default changes (Python 3.14 on Linux). A spawned worker would import
    numpy and xgblora afresh, about 0.24 s each, more than lemma1's whole
    serial run, and would need `fn` and the jobs pickled, which a sweep's
    local model-builder closure cannot be. A forked worker inherits both;
    only results come back pickled.
    """
    global _in_job
    jobs = list(jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs)) - 1
    pin = get = None
    if workers > 0 and not _in_job and threading.active_count() == 1:
        pin, get = openblas("set_num_threads"), openblas("get_num_threads")
    if pin is None or get is None:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, not at module load: about 18 ms of import a serial run never needs
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    next_job = ctx.Value("q", 0)
    started, pending = [], {}  # pending: receiving end of a worker's pipe -> the worker
    results = [None] * len(jobs)
    threads = get()
    try:
        for _ in range(workers):
            receive, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_work, args=(fn, jobs, next_job, send, pin), daemon=True)
            worker.start()
            send.close()  # so that a worker that dies reads as end-of-file, not a hang
            started.append(worker)
            pending[receive] = worker
        pin(1)
        _in_job = True
        for i, result in _take_jobs(fn, jobs, next_job, lambda: bool(wait(list(pending), timeout=0))):
            results[i] = result
        while pending:
            for receive in wait(list(pending)):
                worker = pending.pop(receive)
                try:
                    ok, got = receive.recv()
                except EOFError:
                    worker.join()
                    raise RuntimeError(f"grid worker exited with code {worker.exitcode} before "
                                       "sending its results") from None
                finally:
                    receive.close()
                if not ok:
                    exc, trace = got
                    raise exc from RuntimeError(f"in a grid worker:\n{trace}")
                for i, result in got:
                    results[i] = result
    finally:
        _in_job = False
        pin(threads)
        for receive in pending:
            receive.close()
        for worker in started:
            worker.terminate()  # no-op for a worker that has exited
            worker.join()
    return results


def _take_jobs(fn, jobs, next_job, stop) -> list:
    """[(index, fn(jobs[index])), ...] for each index taken from the shared
    counter until it passes the last job or `stop()` is true.

    A worker sends only once the counter has passed the last job, or when
    a job of its raised, or it dies; so when the caller's `stop` (a worker's
    pipe can be read) turns true, either no job is left to take or the grid
    has failed, and no job is lost."""
    done = []
    while not stop():
        with next_job.get_lock():
            i = next_job.value
            next_job.value += 1
        if i >= len(jobs):
            break
        done.append((i, fn(jobs[i])))
    return done


def _work(fn, jobs, next_job, send, pin):
    """A grid worker: run jobs from the counter, then send
    (True, [(index, result), ...]), or (False, (exception, traceback text))
    once a job raises."""
    global _in_job
    _in_job = True
    pin(1)
    try:
        message = (True, _take_jobs(fn, jobs, next_job, lambda: False))
    except Exception as exc:  # raised again in the parent
        import traceback  # here, as multiprocessing is: only a failing worker needs it

        message = (False, (exc, traceback.format_exc()))
    send.send(message)
