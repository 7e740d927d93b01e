"""Host pace: a fixed reference kernel timed beside the workload.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to twofold for tens of seconds at a time (measured on a 2-vCPU KVM guest:
the same RAE fit took 0.37 s or 0.76 s minutes apart, with no steal time
and CPU time equal to wall time).  Repetition inside a run cannot remove a
drift that outlasts the run.  So each timed piece of work is bracketed by
:func:`measure` of this module's reference kernel, run while the program
under test is idle, and the work's time is also reported *paced*: scaled by
:func:`factor`, the kernel's calm-host time over its time measured around
the work — the time the work would have taken at the host's calm speed.
The kernel is the benchmark's own code, never the program's, so a change to
the program moves paced times as it moves raw ones; raw times stay in the
run record.

A single paced sample is noisy (the kernel and the work do not slow by
exactly the same share); the median over a run's samples is steady.  On
the guest above, over ~11-s windows of RAE fits the spread (quartile
distance over median) of the median fit time was 0.29 raw and 0.04 paced.
When the host is calm pacing gains nothing and adds a little noise: the
interpreter half then switches between two speeds about twofold apart
while back-to-back RAE fits move by 15% (a per-fit spread of 0.105 raw,
0.125 paced over 40 fits).

The kernel has two halves of about equal time, because the program spends
its time in both: interpreter work (dict churn and number formatting, as in
the frontends and routers) and small-array NumPy calls (as in the tape
replays).  Either half alone tracked the fits about half as well.

The host's CPUs slow independently (the kernel's times on two vCPUs of the
guest above were uncorrelated, r = 0.06), so the program's processes run
pinned to one CPU, :data:`PROGRAM_CPU`, where the kernel is timed; the
benchmark's own process (load generators, polling) keeps to the others.
"""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np

#: The kernel's time at the host's calm speed (2-vCPU Xeon KVM guest,
#: Python 3.11, NumPy 2.4, one BLAS thread).  It only fixes the scale of
#: paced times: any constant would do, as long as it never changes.
REFERENCE_S = 0.0036
#: Kernel repetitions per half; the median of each half is kept.
REPEATS = 5

#: The CPUs a run may use, and the one the program's processes run on.
ALL_CPUS = tuple(sorted(os.sched_getaffinity(0)))
PROGRAM_CPU = ALL_CPUS[-1]

_RNG = np.random.default_rng(20240101)
_A = _RNG.standard_normal((64, 64))
_B = _RNG.standard_normal((64, 64)) / 8.0


def _interpreter():
    table, total = {}, 0
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len("%d,%.6f" % (key, i * 0.25))
    return total


def _arrays():
    x = _A
    for __ in range(60):
        x = np.tanh(x @ _B) + 0.5 * x
    return x


def _timed(kernel):
    times = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return median(times)


def measure(cpus=(PROGRAM_CPU,)):
    """Seconds the reference kernel takes now, averaged over ``cpus``: the
    program's CPU, or every CPU for work that keeps them all busy."""
    allowed = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += _timed(_interpreter) + _timed(_arrays)
    finally:
        os.sched_setaffinity(0, allowed)
    return total / len(cpus)


def pinned_to_program_cpu(spawn):
    """``spawn()`` with the calling thread on :data:`PROGRAM_CPU`, so the
    process it starts inherits that CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {PROGRAM_CPU})
    try:
        return spawn()
    finally:
        os.sched_setaffinity(0, allowed)


def keep_off_program_cpu():
    """Move the calling thread (and the threads it starts later) to the
    other CPUs, when there are any."""
    others = os.sched_getaffinity(0) - {PROGRAM_CPU}
    if others:
        os.sched_setaffinity(0, others)


def factor(before, after):
    """Raw-to-paced scale for work bracketed by two :func:`measure` values."""
    return REFERENCE_S / (0.5 * (before + after))
