"""A fixed slice of reference work that gauges how fast the host runs now.

On a shared host the speed of a core drifts by tens of percent within
seconds to minutes, while the guest sees no steal time: process CPU time
drifts with wall time.  The reference slice is interpreter-bound Python with
small numpy calls, the same mix qsmooth runs, but it calls nothing in
qsmooth, so no change to the program moves it.  Timing slices next to each
unit and scaling the unit's rate by ``slice seconds / REF_SECONDS`` divides
out the host's drift and leaves the program's speed: the scaled rate is what
the unit would reach on a host that runs the slice in ``REF_SECONDS``.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import statistics
import time

import numpy as np

# The slice's median time on a 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6); only a constant, so any host's scaled rates compare.
REF_SECONDS = 0.017
_STEPS = 2500


def _slice() -> float:
    rnd = random.Random(12345)
    v = np.full(20, 0.5)
    queue = clock = 0.0
    for _ in range(_STEPS):
        u = rnd.random()
        clock -= math.log(1.0 - u)
        queue = max(0.0, queue + u - 0.5)
        v = np.clip(v + 0.001 * (u - 0.5), 0.1, 0.6)
    return float(v.sum() + queue + clock)


def seconds() -> float:
    """Wall time of one reference slice."""
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


def _timed_slice(barrier, out, i: int) -> None:
    barrier.wait(timeout=60)
    out[i] = seconds()


def slowdown(processes: int = 1) -> float:
    """How slow the host runs now: a slice's time over ``REF_SECONDS``.

    With ``processes`` > 1 that many forked processes run one slice each at
    the same moment, and the mean is taken, so the gauge covers as many
    cores as a process pool of that size uses; a slice in one process does
    not gauge the cores the others run on.
    """
    if processes == 1:
        return seconds() / REF_SECONDS
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(processes)
    out = ctx.Array("d", processes, lock=False)
    procs = [ctx.Process(target=_timed_slice, args=(barrier, out, i)) for i in range(processes)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    if any(proc.exitcode != 0 for proc in procs):
        raise RuntimeError("a reference process failed")
    return statistics.mean(out) / REF_SECONDS
