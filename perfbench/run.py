#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {train,serve-fleet,serve-mixed} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing, and imports
``repro`` from ``src/``.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation.  ``--trace 1`` runs the workload twice, plainly and
with span wrappers installed from outside the program (``trace.py``), and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it are the readable report, and the full
run record (host block, per-step tables, samples) is written under
``perfbench/_work/records``.

Every workload reports the same end-to-end metrics, each timing the
workload's own unit of work (train; serve-fleet; serve-mixed):

- setup_s: spawn to the first timed fit; spawn to the first warm-up score
  (imports, ``StreamRouter.restore``, bind, first compile).  Median of
  the run's five fitting processes; of its three server lifetimes.
- shutdown_s: SIGTERM to exit, saving the fitted RAE and RDAE; SIGTERM to
  exit through the final drain and the router save.  Median of five; of
  three.
- peak_rss_mb: the fitting process (median of five); the server.
- success_frac: fits passing their checks; arrivals answered at the
  nominal 1000/s step; arrivals answered in every phase.
- latency_p50_ms: one round of the three fits; one arrival, from its due
  time to its score, at 1000/s; one ``/submit`` burst.
- latency_tail_ms: the slowest round; the median p99 of 1000-arrival
  windows at 1000/s; the median over segments of 64 bursts of the
  highest percentile with ten bursts beyond it (about p85).
- throughput_per_s: points fitted per second; arrivals scored per second
  while the server is kept backlogged; arrivals scored per second.

Every time (and rate) above is *paced*: measured as it happens, then scaled
to the host's calm speed by a reference kernel timed around it while the
program is idle (``pace.py``).  The shared host this was built on drifts
by up to twofold for tens of seconds, which no run length averages out;
the raw values are in the run record under ``raw``.  Paced and raw values
move together when the program changes.  One exception: the serve
workloads' shutdown_s is raw.  It is mostly the router save's file writes,
which the kernel does not track; paced, it spread two to five times more
between runs than raw (measured, 2-vCPU guest).
"""

import argparse
import gc
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve-fleet", "serve-mixed")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("shutdown_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "frac"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)


def _workload(name):
    from perfbench import fleet, mixed, train

    return {"train": train, "serve-fleet": fleet, "serve-mixed": mixed}[name]


def _metric_lines(result):
    from perfbench.stats import summary

    lines = ["end-to-end metrics:"]
    samples = result.get("samples", {})
    for name, unit in END_TO_END:
        entry = summary(samples.get(name, ()), unit)
        detail = ("n=%d median=%.6g" % (entry["n"], entry["median"])
                  if entry["n"] else "derived")
        if entry.get("tail_pct") is not None:
            detail += " p%.4g=%.6g" % (entry["tail_pct"], entry["tail"])
        lines.append("  %-18s %14.6g %-5s (%s)"
                     % (name, result["e2e"][name], unit, detail))
    return lines


def run(args, work):
    from perfbench.stats import host_block, summary

    module = _workload(args.workload)
    started = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_block(ROOT),
              "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARIABLES}}
    report = []
    if not args.trace:
        result = module.run(work, args.seed, args.seconds)
        passes = [("untraced", result)]
        metrics = {name: {"value": float(result["e2e"][name]), "unit": unit}
                   for name, unit in END_TO_END}
    else:
        from perfbench.trace import LAYER_METRICS, layer_metrics, layer_table

        spans_dir = os.path.join(work, "spans")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        plain = module.run(work, args.seed, args.seconds, spawns=1)
        traced = module.run(work, args.seed, args.seconds, spawns=1,
                            trace_spans=os.path.join(spans_dir, "spans.json"))
        passes = [("untraced", plain), ("traced", traced)]
        documents = []
        for name in sorted(os.listdir(spans_dir)):
            with open(os.path.join(spans_dir, name)) as handle:
                documents.append(json.load(handle))
        values, span_rows = layer_metrics(documents,
                                          traced["record"].get("rounds", ()))
        values["trace.overhead_frac"] = (plain["e2e"]["throughput_per_s"]
                                         / traced["e2e"]["throughput_per_s"]
                                         - 1.0)
        report.append(layer_table(values, span_rows, args.workload))
        report.append("tracing overhead: throughput_per_s %.6g untraced vs "
                      "%.6g traced (%+.1f%% time per unit of work)" % (
                          plain["e2e"]["throughput_per_s"],
                          traced["e2e"]["throughput_per_s"],
                          100 * values["trace.overhead_frac"]))
        record["layers"] = values
        metrics = {name: {"value": float(values[name] or 0.0), "unit": unit}
                   for name, unit, __, __m in LAYER_METRICS}
    checks = [(label, name, ok, detail) for label, result in passes
              for name, ok, detail in result["checks"]]
    correct = all(ok for __, __n, ok, __d in checks)
    attempted = sum(result["attempted"] for __, result in passes)
    failed = sum(result["failed"] for __, result in passes)
    for label, result in passes:
        record[label] = {
            "e2e": result["e2e"], "detail": result["record"],
            "metrics": {name: summary(values, dict(END_TO_END)[name])
                        for name, values in result.get("samples", {}).items()},
        }
        report.append("%s pass:" % label)
        report.extend(result["report"])
        report.extend(_metric_lines(result))
    record["checks"] = checks
    record["elapsed_s"] = time.perf_counter() - started
    report.append("checks:")
    report.extend("  [%s] %s (%s): %s" % ("ok" if ok else "FAIL", name, label,
                                          detail)
                  for label, name, ok, detail in checks)
    host = record["host"]
    report.append("host: nproc=%s python=%s numpy=%s git=%s dirty=%s" % (
        host["nproc"], host["python"], host["numpy"], host["git_sha"],
        host["dirty"]))
    records = os.path.join(work, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    report.append("record: %s (%.1f s)" % (os.path.relpath(path, ROOT),
                                           record["elapsed_s"]))
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("perfbench: no repro sources under %s; run from the root of a "
              "checkout" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    # One BLAS thread in every process of a run: OpenBLAS worker threads on
    # a 2-core host fight the load generator and the server's own thread,
    # and made drain cost vary twofold between server processes (measured).
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.pace import keep_off_program_cpu

    keep_off_program_cpu()
    # The load generators time arrivals in this process: no pauses for
    # cyclic garbage collection while they run.
    gc.disable()
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    return run(args, work)


if __name__ == "__main__":
    sys.exit(main())
