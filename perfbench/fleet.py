"""serve-fleet: an open loop over the TCP line protocol.

One generator process holds one connection to ``repro serve --tcp 0
--drain-every 8`` restored from a fleet fixture (8 streams, each with its
own fitted same-spec conv-RAE at window 128, windows pre-seeded).  A paced
sender thread (the caller's) sends arrivals round-robin across the streams
at fixed rate steps; a receiver thread timestamps every
``stream,index,score`` line.  Each arrival is timed from when it was *due*,
so a stall is charged to every arrival it delays.

Timings are reported paced (``pace.py``): the nominal step runs in slices of
about a second with a host-pace measurement between slices, and the
backlogged phase in batches with a measurement between batches.
"""

from __future__ import annotations

import json
import queue
import shutil
import socket
import threading
import time
from statistics import median

import numpy as np

from .fixtures import fixture, stream_series
from .pace import factor, measure
from .serving import conservation_errors, reference_scores, spawn_server
from .stats import percentile, select_max_rate

DRAIN_EVERY = 8
NOMINAL = 1000
LIMIT_MS = 50.0
#: A run whose sender ran later than this (p99, nominal step) is invalid:
#: its latencies would measure the generator, not the server.
LATE_LIMIT_MS = LIMIT_MS / 2
#: The nominal step's tail latency is the median of the p99s of windows of
#: this many arrivals (a p99 with ten samples beyond it): one scheduler
#: stall of the shared host then moves one window, not the run's figure.
TAIL_WINDOW = 1000
#: Streams whose served scores are replayed through a dedicated scorer.
SAMPLED_STREAMS = 2
#: (arrivals/s, share of the run's seconds): the latency ladder.  The run
#: stops climbing at the first step that misses the limit.
LADDER = ((500, 0.05), (NOMINAL, 0.4), (2000, 0.1), (4000, 0.1), (8000, 0.05))
#: The nominal step is sent in slices of about this many seconds, with a
#: host-pace measurement between them (the server idle, every arrival
#: answered).
SLICE_S = 1.0
#: The last phase sends batches of ``SATURATION_BATCH`` arrivals at once
#: for this share of the run's seconds; a batch's rate, arrivals over the
#: seconds from its send to its last answer, is the server's sustained
#: rate: ``throughput_per_s`` is the median batch's.  That rate is
#: continuous; the highest passing ladder step is not (on a 2-core host it
#: flipped between 2000 and 4000 from run to run), so it is only recorded.
SATURATION_SHARE = 0.3
SATURATION_BATCH = 2048


class LineClient:
    """One TCP connection: ``send`` from the caller, lines read by a thread."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.received = {}  # (stream, index) -> (receipt time, score text)
        self.errors = []  # (receipt time, line)
        self.replies = queue.Queue()
        self.answered = 0
        self.first = threading.Event()
        self._thread = threading.Thread(target=self._receive, daemon=True)
        self._thread.start()

    def _receive(self):
        pending = b""
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except OSError:
                break
            now = time.perf_counter()
            if not chunk:
                break
            *lines, pending = (pending + chunk).split(b"\n")
            for raw in lines:
                line = raw.decode()
                if line.startswith("{") or line == "OK":
                    self.replies.put(line)
                elif line.startswith("ERR"):
                    self.errors.append((now, line))
                else:
                    stream_id, index, score = line.split(",")
                    self.received[(stream_id, int(index))] = (now, score)
                    self.answered += 1
                    self.first.set()

    def send(self, payload):
        self.sock.sendall(payload)

    def stats(self):
        self.send(b"?stats\n")
        return json.loads(self.replies.get(timeout=60))

    def wait_answered(self, count, timeout):
        deadline = time.monotonic() + timeout
        while self.answered < count and time.monotonic() < deadline:
            time.sleep(0.001)
        return self.answered >= count

    def close(self):
        """Wait for the server to close the connection (after its final
        drain), then release the socket."""
        self._thread.join(timeout=60)
        self.sock.close()


class RoundRobin:
    """The seeded arrival source: stream ``g % S`` gets global arrival ``g``."""

    def __init__(self, meta, seed):
        self.names = sorted(meta["streams"])
        self.values = {name: stream_series(seed, tuple(key))
                       for name, key in meta["streams"].items()}
        self.offset = meta["offset"]
        self.count = 0
        self.sent = {name: [] for name in self.names}

    def take(self, n):
        """The next ``n`` arrivals as ``(stream, index, line bytes)``."""
        out = []
        for __ in range(n):
            name = self.names[self.count % len(self.names)]
            history = self.sent[name]
            series = self.values[name]
            text = "%.6f" % series[(self.offset + len(history)) % series.size]
            out.append((name, len(history), ("%s,%s\n" % (name, text)).encode()))
            history.append(float(text))
            self.count += 1
        return out


def run_schedule(client, arrivals, rate):
    """Send ``arrivals`` at ``rate``/s; returns per-arrival due/sent times."""
    interval = 1.0 / rate
    start = time.perf_counter() + 0.005
    due = [start + i * interval for i in range(len(arrivals))]
    sent = [0.0] * len(arrivals)
    i = 0
    while i < len(arrivals):
        now = time.perf_counter()
        if due[i] > now:
            time.sleep(min(due[i] - now, 0.002))
            continue
        j = i
        while j < len(arrivals) and due[j] <= now:
            j += 1
        stamp = time.perf_counter()
        client.send(b"".join(line for __, __i, line in arrivals[i:j]))
        sent[i:j] = [stamp] * (j - i)
        i = j
    return due, sent


def step_report(client, rate, arrivals, due, sent, backlog, errors_before):
    latencies = []
    answered = 0
    for (name, index, __), when in zip(arrivals, due):
        got = client.received.get((name, index))
        if got is None:
            latencies.append(float("inf"))  # a failure misses any limit
        else:
            answered += 1
            latencies.append((got[0] - when) * 1e3)
    late = [(s - d) * 1e3 for s, d in zip(sent, due)]
    refused = len(client.errors) - errors_before
    p99 = percentile(latencies, 99.0)
    return {
        "rate": rate, "sent": len(arrivals), "succeeded": answered,
        "failed": len(arrivals) - answered, "refused": refused,
        "p50_ms": median(latencies),
        "p99_ms": None if p99 == float("inf") else p99,
        "latencies_ms": latencies,
        "backlog": backlog,
        "backlog_ok": backlog <= max(2 * DRAIN_EVERY, rate * LIMIT_MS / 1e3),
        "generator_late_ms": {"p50": percentile(late, 50.0),
                              "p99": percentile(late, 99.0)},
    }


def paced_latencies(client, arrivals, due, scale):
    """Latencies from due time (ms) with the server's part paced by ``scale``.

    An arrival first waits for the drain its batch triggers, which starts
    when the batch's last arrival is due: a wait the rate sets, not the
    host.  Only the rest, from that due time to the answer, is scaled.
    """
    out = []
    for k in range(0, len(arrivals), DRAIN_EVERY):
        trigger = due[min(k + DRAIN_EVERY, len(due)) - 1]
        for (name, index, __), when in zip(arrivals[k:k + DRAIN_EVERY],
                                           due[k:k + DRAIN_EVERY]):
            got = client.received.get((name, index))
            out.append(float("inf") if got is None else
                       ((trigger - when) + (got[0] - trigger) * scale) * 1e3)
    return out


def _spawn_once(fix_dir, work, seed, label, spans_path, measured, seconds,
                meta):
    """One server lifetime; returns its samples (and the measured phase)."""
    before = measure()
    child, port, state = spawn_server(
        fix_dir, work, label,
        ["--tcp", "0", "--drain-every", str(DRAIN_EVERY)], spans_path)
    out = {}
    try:
        client = LineClient(port)
        source = RoundRobin(meta, seed)
        client.send(b"".join(line for *__, line
                             in source.take(len(source.names))))
        if not client.first.wait(120):
            raise RuntimeError("no warm-up score from the server")
        out["setup_s"] = time.perf_counter() - child.spawned
        out["paced_setup_s"] = out["setup_s"] * factor(before, measure())
        if measured:
            out.update(_measure(client, source, seconds))
            stats = client.stats()
            out["conservation_errors"] = conservation_errors(stats)
            out["server_stats"] = {key: stats[key] for key in (
                "submitted", "scored", "dropped", "drains", "program_cache")}
        out["shutdown_s"] = child.terminate()
        out["peak_rss_mb"] = child.peak_rss_mb
        client.close()
        out["exit_code"] = child.exit_code
        out["source"], out["client"] = source, client
    finally:
        child.kill()
        shutil.rmtree(state, ignore_errors=True)
    return out


def saturate(client, source, duration, before):
    """Send batches of ``SATURATION_BATCH`` arrivals, each once the last is
    answered, for ``duration`` seconds (at least three batches); returns
    the median batch rate, raw and paced, and the last pace measurement."""
    rates, paced = [], []
    ends = time.perf_counter() + duration
    while len(rates) < 3 or time.perf_counter() < ends:
        batch = source.take(SATURATION_BATCH)
        started = time.perf_counter()
        client.send(b"".join(line for *__, line in batch))
        client.wait_answered(source.count, 60.0)
        last = max(client.received[(name, index)][0]
                   for name, index, __ in batch)
        after = measure()
        rates.append(len(batch) / (last - started))
        paced.append(rates[-1] / factor(before, after))
        before = after
    return median(rates), median(paced), before


def windowed_p99(latencies, size=TAIL_WINDOW):
    """Median over consecutive windows of ``size`` arrivals of their p99."""
    windows = [latencies[k:k + size]
               for k in range(0, len(latencies) - size + 1, size)]
    if not windows:
        return percentile(latencies, 99.0)
    return median([percentile(window, 99.0) for window in windows])


def _measure(client, source, seconds):
    # Warm-up at the nominal rate: compile, fill caches; not recorded.
    warm = source.take(max(DRAIN_EVERY, int(NOMINAL * 0.5) // DRAIN_EVERY
                           * DRAIN_EVERY))
    run_schedule(client, warm, NOMINAL)
    client.wait_answered(source.count, 10.0)
    steps, paced = [], []
    started = time.perf_counter()
    for rate, share in LADDER:
        count = max(1, round(rate * seconds * share / DRAIN_EVERY))
        slices = max(1, round(count * DRAIN_EVERY / rate / SLICE_S)
                     if rate == NOMINAL else 1)
        errors_before = len(client.errors)
        arrivals, due, sent, backlog = [], [], [], 0
        before = measure() if rate == NOMINAL else None
        for k in range(slices):
            part = source.take((count // slices + (k < count % slices))
                               * DRAIN_EVERY)
            part_due, part_sent = run_schedule(client, part, rate)
            backlog = max(backlog, source.count - client.answered)
            client.wait_answered(source.count,
                                 max(5.0, 3.0 * len(part) / rate))
            if rate == NOMINAL:
                after = measure()
                paced += paced_latencies(client, part, part_due,
                                         factor(before, after))
                before = after
            arrivals += part
            due += part_due
            sent += part_sent
        step = step_report(client, rate, arrivals, due, sent, backlog,
                           errors_before)
        steps.append(step)
        if rate >= NOMINAL and select_max_rate(steps, LIMIT_MS) != rate:
            break  # past capacity: higher steps would only queue
    raw_rate, paced_rate, __ = saturate(
        client, source, SATURATION_SHARE * seconds, measure())
    return {"steps": steps, "paced_latencies_ms": paced,
            "saturation_per_s": raw_rate, "paced_saturation_per_s": paced_rate,
            "measured_s": time.perf_counter() - started}


def run(work, seed, seconds, spawns=3, trace_spans=None):
    """The serve-fleet workload; returns the run's result block."""
    fix_dir, meta = fixture(work, "serve-fleet", seed)
    samples = []
    for k in range(spawns):
        last = k == spawns - 1
        samples.append(_spawn_once(
            fix_dir, work, seed, "fleet%d" % k,
            trace_spans if last else None, last, seconds, meta))
    measured = samples[-1]
    steps = measured["steps"]
    nominal = next(step for step in steps if step["rate"] == NOMINAL)
    source, client = measured["source"], measured["client"]

    checks = []
    unanswered = [(name, index) for name in source.names
                  for index in range(len(source.sent[name]))
                  if (name, index) not in client.received]
    checks.append(("every arrival answered by shutdown", not unanswered,
                   "%d unanswered" % len(unanswered)))
    checks.append(("no ERR replies", not client.errors,
                   "; ".join(line for __, line in client.errors[:3])))
    checks.append(("stats: submitted == scored + dropped + lag",
                   not measured["conservation_errors"],
                   "broken for %s" % measured["conservation_errors"]))
    rng = np.random.default_rng([seed, 99])
    sampled = sorted(rng.choice(source.names, size=SAMPLED_STREAMS,
                                replace=False).tolist())
    expected = reference_scores(fix_dir, {name: source.sent[name]
                                          for name in sampled})
    mismatched = [(name, index) for name in sampled
                  for index, score in enumerate(expected[name])
                  if client.received.get((name, index), (0, None))[1]
                  != "%.10g" % score]
    checks.append(("served scores == dedicated StreamScorer (%s)"
                   % ",".join(sampled), not mismatched,
                   "%d of %d differ, first %s" % (
                       len(mismatched), sum(map(len, expected.values())),
                       mismatched[:1])))
    lateness = nominal["generator_late_ms"]["p99"]
    checks.append(("generator lateness p99 at the nominal step <= %g ms"
                   % LATE_LIMIT_MS, lateness <= LATE_LIMIT_MS,
                   "%.3f ms" % lateness))
    checks.append(("server exit code 0",
                   all(s["exit_code"] == 0 for s in samples),
                   str([s["exit_code"] for s in samples])))

    paced = measured["paced_latencies_ms"]
    tail = windowed_p99(paced)
    attempted = sum(len(sent) for sent in source.sent.values())
    failed = len(unanswered) + len(client.errors)
    e2e = {
        "setup_s": median([s["paced_setup_s"] for s in samples]),
        "shutdown_s": median([s["shutdown_s"] for s in samples]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "success_frac": nominal["succeeded"] / nominal["sent"],
        "latency_p50_ms": median(paced),
        "latency_tail_ms": tail,
        "throughput_per_s": measured["paced_saturation_per_s"],
    }
    record = {
        "latency_tail": "median over windows of %d arrivals of their p99"
                        % TAIL_WINDOW,
        "raw": {"setup_s": median([s["setup_s"] for s in samples]),
                "latency_p50_ms": nominal["p50_ms"],
                "latency_tail_ms": windowed_p99(nominal["latencies_ms"]),
                "throughput_per_s": measured["saturation_per_s"]},
        "samples": {"setup_s": [s["paced_setup_s"] for s in samples],
                    "shutdown_s": [s["shutdown_s"] for s in samples]},
        "steps": [{key: value for key, value in step.items()
                   if key != "latencies_ms"} for step in steps],
        "nominal_rate_per_s": NOMINAL, "latency_limit_ms": LIMIT_MS,
        "max_rate_per_s": select_max_rate(steps, LIMIT_MS),
        "measured_s": measured["measured_s"],
        "server_stats": measured["server_stats"],
        "sampled_streams": sampled,
    }
    report = ["rate steps (one connection, open loop, latency from due time):",
              "  %7s %6s %9s %6s %7s %8s %8s %7s %8s %8s" % (
                  "rate/s", "sent", "succeeded", "failed", "refused",
                  "p50_ms", "p99_ms", "backlog", "late_p50", "late_p99")]
    for step in steps:
        report.append("  %7d %6d %9d %6d %7d %8.3f %8s %7d %8.3f %8.3f" % (
            step["rate"], step["sent"], step["succeeded"], step["failed"],
            step["refused"], step["p50_ms"],
            "-" if step["p99_ms"] is None else "%.3f" % step["p99_ms"],
            step["backlog"], step["generator_late_ms"]["p50"],
            step["generator_late_ms"]["p99"]))
    report.append("  max_rate_per_s %d (p99 <= %g ms, bounded backlog); "
                  "sustained under backlog %.0f arrivals/s (%.0f paced)"
                  % (record["max_rate_per_s"], LIMIT_MS,
                     measured["saturation_per_s"],
                     measured["paced_saturation_per_s"]))
    samples = {"setup_s": record["samples"]["setup_s"],
               "shutdown_s": record["samples"]["shutdown_s"],
               "latency_p50_ms": paced, "latency_tail_ms": paced}
    return {"e2e": e2e, "record": record, "checks": checks, "report": report,
            "samples": samples, "attempted": attempted, "failed": failed}
