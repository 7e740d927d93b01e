"""Benchmark records: raw numbers merged into JSON files under bench-results/.

Every throughput/latency benchmark keeps its timings in one JSON file per
module (``serve_throughput.json``, ``scoring_latency.json``,
``train_throughput.json``), one entry per benchmark, so BENCH trajectories
can accumulate across runs.  ``REPRO_BENCH_DIR`` moves the directory and
``REPRO_BENCH_TINY=1`` marks the records of shrunken CI smoke runs.
"""

import json
import os

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
RESULTS_DIR = os.environ.get("REPRO_BENCH_DIR", "bench-results")


def record_result(filename, key, payload, skipped_reason=None):
    """Merge one benchmark's raw numbers into ``RESULTS_DIR/filename``.

    ``skipped_reason`` marks a record whose ratio claim could not be
    meaningfully measured on this host (single core, tiny mode): the raw
    timings are still recorded, but no ``speedup`` field is — a sub-1x
    "speedup" measured where nothing could overlap is not a regression,
    and must not enter the BENCH trajectory looking like one.
    """
    path = os.path.join(RESULTS_DIR, filename)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    payload = dict(payload, tiny=TINY, cpu_count=os.cpu_count())
    if skipped_reason is not None:
        payload.pop("speedup", None)
        payload["skipped_reason"] = skipped_reason
    data[key] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
