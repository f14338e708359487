"""Forked workers, the one parallel path of both Monte Carlo estimators:
reweighting splits its sample chunks among them and Metropolis its chains.
Each worker is an ``os.fork()`` child pinned to its own CPU, which writes
its rows into arrays on shared maps; with one worker, nothing forks.
"""

from __future__ import annotations

import math
import os

import numpy as np


def workers(parts: int) -> int:
    """Workers that share ``parts`` parts of the work: one per CPU in the
    affinity mask, at most one per part.  1, which runs them in the caller,
    where the mask cannot be read: Windows, and macOS, whose Accelerate BLAS
    is not fork-safe."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(parts, len(os.sched_getaffinity(0)))


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array on its own anonymous shared map, so writes made by a
    forked child reach the parent; the map is unmapped with the array."""
    # mmap, and traceback below, are imported on first use: at import time
    # they add about 0.2 MB of resident memory to runs that never fork
    import mmap

    count = math.prod(shape)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))  # a map cannot be empty
    return np.frombuffer(buf, dtype, count).reshape(shape)


def run(work, workers: int) -> None:
    """Call ``work(p)`` for p = 0..workers-1: here when there is one part,
    otherwise each in a forked child, which hands back nothing but what it
    writes to shared memory.

    Child p runs pinned to the p-th CPU of the affinity mask, cycling when
    there are more parts than CPUs: left to itself, the scheduler can keep a
    fresh child on its parent's CPU for the whole call.  The caller only
    forks and waits: its affinity stays as it was, and the work's
    temporaries never enter its heap.
    Every child is reaped before this returns or raises; one that fails or
    is killed makes the call raise RuntimeError.
    """
    if workers == 1:
        work(0)
        return
    cpus = sorted(os.sched_getaffinity(0))
    pids = []
    try:
        for p in range(workers):
            pid = os.fork()
            if pid == 0:
                # the child must neither return into the caller nor flush
                # the buffers it copied from the parent
                code = 1
                try:
                    os.sched_setaffinity(0, {cpus[p % len(cpus)]})
                    work(p)
                    code = 0
                except Exception:
                    import traceback

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            pids.append(pid)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    failed = {p: os.waitstatus_to_exitcode(s) for p, s in enumerate(statuses) if s}
    if failed:
        raise RuntimeError(
            f"forked workers failed (worker: exit code, minus the signal if killed): {failed}"
        )
