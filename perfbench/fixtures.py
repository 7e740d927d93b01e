"""Seeded inputs and the fitted fixtures the serve workloads restore.

A fixture is a saved :class:`repro.serve.StreamRouter` directory plus a
``bench.json`` naming its streams.  It is built once per (workload, seed)
under ``perfbench/_work/fixtures`` and reused by later runs; its build
time is never measured.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

#: Every served stream's values are cut from a series this long (cycled).
SERIES_LENGTH = 1 << 14


def stream_series(seed, key, length=SERIES_LENGTH):
    """A periodic signal with noise and sparse spikes, rounded to 6 places.

    ``key`` (a small integer tuple) picks the stream, so every stream of a
    seed differs and the same (seed, key) always gives the same values.
    Rounding makes the text a client sends parse back to the same float.
    """
    rng = np.random.default_rng([seed, *key])
    t = np.arange(length)
    period = rng.uniform(20.0, 80.0)
    phase = rng.uniform(0.0, 2 * np.pi)
    values = (np.sin(2 * np.pi * t / period + phase)
              + rng.uniform(0.2, 0.5) * np.sin(6 * np.pi * t / period)
              + 0.1 * rng.standard_normal(length))
    spikes = rng.choice(length, size=length // 100, replace=False)
    values[spikes] += rng.choice([-1.0, 1.0], size=spikes.size) * rng.uniform(
        3.0, 6.0, size=spikes.size)
    return np.round(values, 6)


def _fit_shard(router, stream_id, detector, values, train, window):
    """Fit ``detector`` on ``values[:train]`` (unless it is the router
    default) and pre-seed the shard with the next ``window`` points."""
    if detector is not None:
        detector.fit(values[:train])
    scorer = router.add_stream(stream_id, detector=detector)
    scorer.seed(values[train:train + window])


#: Points each per-stream detector is fitted on (RDAE: fewer, it is slow),
#: before the shard's window is pre-seeded with the points that follow.
TRAIN_POINTS = 512
RDAE_TRAIN_POINTS = 150


def build_fleet(directory, seed):
    """ROADMAP's reference fleet: 8 streams at window 128, each with its own
    fitted paper-default conv-RAE (one architecture, distinct weights)."""
    from repro.core import RAE
    from repro.serve import StreamRouter

    window = 128
    router = StreamRouter(None, window=window, queue_limit=1 << 16)
    streams = {}
    for k in range(8):
        streams["s%d" % k] = [0, k]
        _fit_shard(router, "s%d" % k, RAE(seed=k), stream_series(seed, (0, k)),
                   TRAIN_POINTS, window)
    router.save(directory)
    return {"window": window, "offset": TRAIN_POINTS + window,
            "streams": streams}


#: serve-mixed's per-stream same-spec groups (distinct architectures).
MIXED_GROUPS = {
    "a": {"kernels": 8, "num_layers": 2},
    "b": {"kernels": 16, "kernel_size": 5},
    "c": {"kernels": 32, "num_layers": 2},
}


def build_mixed(directory, seed):
    """A heterogeneous fleet at window 256: 32 streams on one shared default
    RAE, three per-stream same-spec RAE groups of 4, two per-stream RDAEs."""
    from repro.core import RAE, RDAE
    from repro.serve import StreamRouter

    window = 256
    default = RAE(seed=0).fit(stream_series(seed, (1, 0))[:2 * TRAIN_POINTS])
    router = StreamRouter(default, window=window, queue_limit=1 << 14)
    streams, offsets = {}, {}

    def add(name, key, detector, fit_length):
        _fit_shard(router, name, detector, stream_series(seed, key),
                   fit_length, window)
        streams[name] = list(key)
        offsets[name] = fit_length + window

    for k in range(32):
        add("d%d" % k, (2, k), None, TRAIN_POINTS)
    for g, (prefix, spec) in enumerate(sorted(MIXED_GROUPS.items())):
        for k in range(4):
            add("%s%d" % (prefix, k), (3 + g, k), RAE(seed=k, **spec),
                TRAIN_POINTS)
    for k in range(2):
        add("r%d" % k, (9, k), RDAE(seed=k), RDAE_TRAIN_POINTS)
    router.save(directory)
    return {"window": window, "offsets": offsets, "streams": streams}


BUILDERS = {"serve-fleet": build_fleet, "serve-mixed": build_mixed}


def fixture(work, workload, seed):
    """The fixture directory of ``workload`` at ``seed``, built if missing."""
    tag = "%s-%d" % (workload, seed)
    final = os.path.join(work, "fixtures", tag)
    if not os.path.exists(os.path.join(final, "bench.json")):
        os.makedirs(os.path.dirname(final), exist_ok=True)
        staging = tempfile.mkdtemp(prefix=tag + ".", dir=os.path.dirname(final))
        try:
            meta = BUILDERS[workload](staging, seed)
            with open(os.path.join(staging, "bench.json"), "w") as handle:
                json.dump(meta, handle)
            shutil.rmtree(final, ignore_errors=True)
            os.rename(staging, final)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    with open(os.path.join(final, "bench.json")) as handle:
        return final, json.load(handle)


def fresh_copy(source, work, label):
    """A throwaway copy of a saved router directory for one server spawn."""
    target = tempfile.mkdtemp(prefix=label + ".", dir=work)
    for name in os.listdir(source):
        if name != "bench.json":
            shutil.copy2(os.path.join(source, name), target)
    return target
