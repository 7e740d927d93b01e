"""Streaming latency: incremental scoring must beat full re-scoring.

The production claim of the streaming subsystem: scoring a new arrival with
:class:`repro.stream.StreamScorer` costs work bounded by the sliding window,
while the naive deployment (re-run ``score_new`` on the full history per
arrival) grows with the stream.  On a 10k-point series the incremental path
must be at least 5x faster per new point.  A second check bounds the
*window* term too: receptive-field-limited tail forwards
make a push O(receptive field) instead of O(window) — at window 2048 a
conv-RAE push must be at least 5x faster than a full window re-forward,
with bit-identical scores.

``REPRO_BENCH_TINY=1`` shrinks every size so CI smoke runs can exercise
the measured paths end-to-end in seconds; the wall-clock ratio assertions
are skipped in tiny mode (the bit-identity assertions are not).
"""

import os
import time

import numpy as np

from repro.core import RAE, ScoringSession
from repro.stream import StreamScorer

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
LENGTH = 1_500 if TINY else 10_000
WINDOW = 64 if TINY else 128
TAIL_WINDOW = 256 if TINY else 2048


def make_series(seed, length=LENGTH):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 50)
            + 0.1 * rng.standard_normal(length))[:, None]


def test_incremental_scoring_beats_full_rescoring():
    series = make_series(0)
    # Paper-sized architecture: the forward cost scales with series length,
    # which is exactly what the naive per-arrival re-scoring pays for.
    detector = RAE(max_iterations=6, kernels=32, num_layers=4).fit(series[:500])

    arrivals = 15
    history, live = series[:-arrivals], series[-arrivals:]

    # Naive deployment: every arrival re-scores the entire history.
    naive_seconds = []
    grown = history.copy()
    for point in live:
        grown = np.vstack([grown, point[None]])
        started = time.perf_counter()
        naive_scores = detector.score_new(grown)
        naive_seconds.append(time.perf_counter() - started)
    assert np.isfinite(naive_scores).all()

    # Incremental deployment: bounded window per arrival.
    scorer = StreamScorer(detector, window=WINDOW)
    scorer.seed(history)
    incremental_seconds = []
    incremental_scores = []
    for point in live:
        started = time.perf_counter()
        incremental_scores.append(scorer.push(point))
        incremental_seconds.append(time.perf_counter() - started)
    assert np.isfinite(incremental_scores).all()

    naive = float(np.median(naive_seconds))
    incremental = float(np.median(incremental_seconds))
    speedup = naive / max(incremental, 1e-12)
    print("\nper-arrival latency on a %d-point series: naive %.2f ms, "
          "incremental %.2f ms (%.1fx)"
          % (LENGTH, 1e3 * naive, 1e3 * incremental, speedup))
    if not TINY:
        assert speedup >= 5.0, (
            "incremental scoring only %.1fx faster than full re-scoring"
            % speedup
        )


def test_tail_forward_push_beats_full_reforward():
    """Receptive-field-bounded pushes: O(receptive field), not O(window).

    Two sessions serve the same fitted conv RAE over the same window-2048
    stream: one with tail forwards (the default), one forced to re-forward
    the full window per push (``tail_forward=False`` — the pre-tail
    behaviour).  The tail path must be >= 5x faster per push *and*
    bit-identical, including the full window vector after the run.
    """
    window = TAIL_WINDOW
    series = make_series(2, length=window + 400)
    detector = RAE(max_iterations=3 if TINY else 6, kernels=32,
                   num_layers=3).fit(series[:400])
    assert detector.tail_context() is not None

    arrivals = 20 if TINY else 60
    history, live = series[:-arrivals], series[-arrivals:]
    tail = ScoringSession(detector, window=window).seed(history)
    full = ScoringSession(detector, window=window,
                          tail_forward=False).seed(history)
    assert tail.tail_supported and not full.tail_supported

    tail_seconds, full_seconds = [], []
    tail_scores, full_scores = [], []
    for point in live:
        started = time.perf_counter()
        tail_scores.append(tail.push(point))
        tail_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        full_scores.append(full.push(point))
        full_seconds.append(time.perf_counter() - started)

    # Tail forwards reorganise *what gets forwarded*, never the arithmetic:
    # push scores and the final window vector must match bit for bit.
    assert np.array_equal(tail_scores, full_scores)
    assert np.array_equal(tail.scores(), full.scores())

    tail_ms = 1e3 * float(np.median(tail_seconds))
    full_ms = 1e3 * float(np.median(full_seconds))
    speedup = full_ms / max(tail_ms, 1e-9)
    print("\npush latency at window %d: full re-forward %.2f ms, "
          "tail forward %.2f ms (%.1fx, tail_context=%d)"
          % (window, full_ms, tail_ms, speedup, detector.tail_context()))
    if not TINY:
        assert speedup >= 5.0, (
            "tail forward only %.1fx faster than full re-forward" % speedup
        )
