"""Summary statistics, rate-step selection and the host block of a run record."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from statistics import median

#: A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def tail_percentile(values):
    """``(percentile, value)`` of the highest percentile with ten samples beyond.

    With ``n`` sorted samples, the value at 0-based rank ``n - 11`` has
    exactly ten samples above it, so it sits at percentile
    ``100 * (n - 10) / n``.  Returns ``(None, None)`` for fewer than eleven
    samples, where no percentile has ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return None, None
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def percentile(values, pct):
    """Nearest-rank percentile (the smallest sample with ``pct`` % at or below)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(int(-(-pct * len(ordered) // 100)), 1)  # ceil, at least 1
    return ordered[min(rank, len(ordered)) - 1]


def p99_or_tail(values):
    """``(percentile, value)``: p99 when the sample supports it, else the
    highest percentile with ten samples beyond it, else the maximum."""
    pct, value = tail_percentile(values)
    if pct is None:
        return 100.0, max(values)
    if pct >= 99.0:
        return 99.0, percentile(values, 99.0)
    return pct, value


def summary(values, unit):
    """The record entry of one sampled quantity."""
    values = list(values)
    if not values:
        return {"unit": unit, "n": 0}
    pct, tail = tail_percentile(values)
    return {"unit": unit, "n": len(values), "median": median(values),
            "tail_pct": pct, "tail": tail}


def select_max_rate(steps, limit_ms):
    """The highest rate of an ascending ladder that every lower step also met.

    ``steps`` are dicts with ``rate``, ``p99_ms`` (None when the step had no
    answered arrival), ``backlog_ok`` and ``failed``.  A step passes when its
    p99 latency is within ``limit_ms``, its backlog stayed bounded and no
    arrival failed; the ladder stops at the first step that does not pass,
    because a server past capacity cannot recover at a higher rate.
    Returns 0 when even the lowest step fails.
    """
    best = 0
    for step in sorted(steps, key=lambda s: s["rate"]):
        passed = (step["p99_ms"] is not None and step["p99_ms"] <= limit_ms
                  and step["backlog_ok"] and not step["failed"])
        if not passed:
            break
        best = step["rate"]
    return best


def _git(root, *args):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block(root):
    """Where a run ran: cores, BLAS, versions and the source revision."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas")
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        blas = None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
    }
