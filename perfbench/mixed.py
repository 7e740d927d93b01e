"""serve-mixed: a closed loop of HTTP clients against a heterogeneous fleet.

Two clients, each on its own connection to ``repro serve --http 0``, POST
``/submit`` bursts of 256 arrivals with ``drain=true`` and send the next
burst only when the reply is in.  The fixture fleet (window 256) mixes 32
streams on the shared router-default RAE (solo score-tape path), three
per-stream same-spec RAE groups of different architectures (stacked
programs) and a small per-stream RDAE group.  A fixed share of every burst
goes to *new* stream ids, auto-created on the default detector, so their
windows fill from empty while the fleet grows.

Every stream is owned by one client, so its arrivals are ordered by that
client's bursts.  The sampled check streams get exactly one arrival per
burst: each of their drain chunks is then a single arrival, which a
dedicated scorer can replay exactly, whichever client's drain scores it.

The measured phase is a fixed number of bursts, so every run grows the
fleet by the same new streams whatever the host's speed (in a timed phase
a faster run made more streams, and every drain's cost grows with them).
It runs in segments with the clients stopped and a host-pace measurement
between segments; its timings are reported paced (``pace.py``).
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from statistics import median

import numpy as np

from .fixtures import fixture, stream_series
from .pace import ALL_CPUS, factor, measure
from .serving import conservation_errors, reference_scores, spawn_server
from .stats import p99_or_tail

CLIENTS = 2
BURST = 256
#: Share of every burst sent to new stream ids, and how many arrivals one
#: new stream gets before the client moves on to another new id.
CHURN_SHARE = 0.1
NEW_STREAM_LIFE = 16
#: After each reply a client thinks for a seeded uniform time up to this
#: long, about one drain, so the two clients keep changing phase.  With at
#: most 4 ms they settled into one phase for seconds at a time, either
#: waiting on each other's drains or not, and the median burst latency of
#: 2-s stretches of one run jumped between about 25 and 50 ms.
THINK_S = 0.03
#: The measured phase runs in segments of this many bursts per client,
#: about two seconds at the host's calm speed; ``--seconds`` buys
#: segments at that rate.
SEGMENT_BURSTS = 32
SEGMENT_S = 2.0
#: One sampled check stream per kind of shard.
SAMPLED_PREFIXES = ("d", "a", "b", "c", "r")


class Source:
    """One client's seeded arrivals: its owned streams plus new stream ids."""

    def __init__(self, meta, seed, client, owned, sampled):
        self.rng = np.random.default_rng([seed, 50 + client])
        self.seed, self.client = seed, client
        self.series = {name: stream_series(seed, tuple(meta["streams"][name]))
                       for name in owned}
        self.offsets = {name: meta["offsets"][name] for name in owned}
        self.sampled = [name for name in owned if name in sampled]
        self.others = [name for name in owned if name not in sampled]
        self.sent = {name: [] for name in owned}
        self.new = []  # [name, arrivals left]
        self.created = 0

    def value(self, name):
        """The next arrival of ``name`` (logged for the output check)."""
        history = self.sent[name]
        series = self.series[name]
        value = float(series[(self.offsets.get(name, 0) + len(history))
                             % series.size])
        history.append(value)
        return {"stream": name, "values": value}

    def _new_stream(self):
        name = "n%d-%d" % (self.client, self.created)
        self.series[name] = stream_series(self.seed, (20 + self.client,
                                                      self.created))
        self.sent[name] = []
        self.created += 1
        return [name, NEW_STREAM_LIFE]

    def burst(self, size=BURST):
        arrivals = [self.value(name) for name in self.sampled]
        churn = int(round(size * CHURN_SHARE))
        for __ in range(churn):
            if len(self.new) < 4:
                self.new.append(self._new_stream())
            slot = self.new[int(self.rng.integers(len(self.new)))]
            arrivals.append(self.value(slot[0]))
            slot[1] -= 1
            if not slot[1]:
                self.new.remove(slot)
        picks = self.rng.integers(len(self.others), size=size - len(arrivals))
        arrivals.extend(self.value(self.others[k]) for k in picks)
        return arrivals


class HttpClient:
    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method, path, document=None):
        body = None if document is None else json.dumps(document)
        self.conn.request(method, path, body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError("%s %s -> %d %s" % (method, path,
                                                   response.status, payload))
        return json.loads(payload)

    def close(self):
        self.conn.close()


def submit(client, arrivals, outcome):
    """POST one burst; records latency, answers and failures in ``outcome``."""
    started = time.perf_counter()
    reply = client.call("POST", "/submit", {"arrivals": arrivals,
                                            "drain": True})
    outcome["latency_ms"].append((time.perf_counter() - started) * 1e3)
    outcome["attempted"] += len(arrivals)
    outcome["answered"] += len(reply["scores"])
    outcome["refused"] += len(reply["errors"])
    for entry in reply["scores"]:
        outcome["scores"][(entry["stream"], entry["index"])] = entry["score"]
    return reply


def _new_outcome():
    return {"latency_ms": [], "attempted": 0, "answered": 0, "refused": 0,
            "scores": {}}


def _closed_loop(port, source, bursts, outcome, errors):
    client = HttpClient(port)
    try:
        for __ in range(bursts):
            submit(client, source.burst(), outcome)
            time.sleep(source.rng.uniform(0.0, THINK_S))
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        errors.append(repr(exc))
    finally:
        client.close()


def _run_clients(port, sources, bursts):
    """Every client sends ``bursts`` bursts; returns the outcomes, the
    seconds until the last reply and the client errors."""
    outcomes = [_new_outcome() for __ in sources]
    errors = []
    threads = [threading.Thread(target=_closed_loop,
                                args=(port, source, bursts, outcome, errors))
               for source, outcome in zip(sources, outcomes)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return outcomes, time.perf_counter() - started, errors


def _paced_segments(port, sources, seconds):
    """The measured phase: closed-loop segments, each bracketed by host-pace
    measurements.  Returns the outcomes, per-segment ``(elapsed_s, scale)``
    and client errors.

    The clients' own work (JSON both ways, for 256 arrivals a burst) keeps
    their CPU busy too, so the pace is taken over every CPU: with the
    server's CPU alone, paced figures spread more between runs than raw
    ones (measured: burst p50 0.11 vs 0.10, tail 0.35 vs 0.12)."""
    outcomes, segments, errors = [], [], []
    before = measure(ALL_CPUS)
    for __ in range(max(1, round(seconds / SEGMENT_S))):
        part, elapsed, more = _run_clients(port, sources, SEGMENT_BURSTS)
        after = measure(ALL_CPUS)
        outcomes.append(part)
        segments.append((elapsed, factor(before, after)))
        errors += more
        before = after
    return outcomes, segments, errors


def _sources(meta, seed):
    names = sorted(meta["streams"])
    rng = np.random.default_rng([seed, 77])
    sampled = set()
    for prefix in SAMPLED_PREFIXES:
        kind = [name for name in names if name.startswith(prefix)]
        sampled.add(kind[int(rng.integers(len(kind)))])
    owners = {name: k % CLIENTS for k, name in enumerate(names)}
    return [Source(meta, seed, c, [n for n in names if owners[n] == c], sampled)
            for c in range(CLIENTS)], sorted(sampled)


def _spawn_once(fix_dir, work, seed, label, spans_path, measured, seconds,
                meta):
    before = measure()
    child, port, state = spawn_server(fix_dir, work, label, ["--http", "0"],
                                      spans_path)
    out = {}
    try:
        sources, sampled = _sources(meta, seed)
        client = HttpClient(port)
        # Warm-up burst: one arrival for every fixture stream.
        first = [arrival for source in sources
                 for arrival in (source.value(name) for name in source.sent)]
        warm = _new_outcome()
        submit(client, first, warm)
        out["setup_s"] = time.perf_counter() - child.spawned
        out["paced_setup_s"] = out["setup_s"] * factor(before, measure())
        if measured:
            outcomes, __, errors = _run_clients(port, sources,
                                                SEGMENT_BURSTS // 4)
            outcomes.append(warm)
            segments, scales, more = _paced_segments(port, sources, seconds)
            errors += more
            out["warm"], out["segments"] = outcomes, segments
            out["scales"], out["client_errors"] = scales, errors
            stats = client.call("GET", "/stats")
            out["conservation_errors"] = conservation_errors(stats)
            out["server_stats"] = {key: stats[key] for key in (
                "streams", "submitted", "scored", "dropped", "drains",
                "program_cache")}
            out["sources"], out["sampled"] = sources, sampled
        client.close()
        out["shutdown_s"] = child.terminate()
        out["peak_rss_mb"] = child.peak_rss_mb
        out["exit_code"] = child.exit_code
    finally:
        child.kill()
        shutil.rmtree(state, ignore_errors=True)
    return out


def run(work, seed, seconds, spawns=3, trace_spans=None):
    """The serve-mixed workload; returns the run's result block."""
    fix_dir, meta = fixture(work, "serve-mixed", seed)
    samples = []
    for k in range(spawns):
        last = k == spawns - 1
        samples.append(_spawn_once(fix_dir, work, seed, "mixed%d" % k,
                                   trace_spans if last else None, last,
                                   seconds, meta))
    run_ = samples[-1]
    measured = [o for segment in run_["segments"] for o in segment]
    everything = run_["warm"] + measured
    attempted = sum(o["attempted"] for o in everything)
    answered = sum(o["answered"] for o in everything)
    refused = sum(o["refused"] for o in everything)
    failed = attempted - answered
    scores = {}
    for outcome in everything:
        scores.update(outcome["scores"])
    sent = {}
    for source in run_["sources"]:
        sent.update({name: source.sent[name] for name in source.sampled})
    expected = reference_scores(fix_dir, sent)
    mismatched = [(name, index) for name, values in expected.items()
                  for index, score in enumerate(values)
                  if scores.get((name, index)) != score]
    checks = [
        ("every arrival answered in its reply", not failed,
         "%d of %d unanswered, %d refused" % (failed, attempted, refused)),
        ("clients saw no errors", not run_["client_errors"],
         "; ".join(run_["client_errors"][:3])),
        ("stats: submitted == scored + dropped + lag",
         not run_["conservation_errors"],
         "broken for %s" % run_["conservation_errors"][:5]),
        ("served scores == dedicated StreamScorer (%s)"
         % ",".join(run_["sampled"]), not mismatched,
         "%d of %d differ, first %s" % (len(mismatched),
                                        sum(map(len, expected.values())),
                                        mismatched[:1])),
        ("server exit code 0", all(s["exit_code"] == 0 for s in samples),
         str([s["exit_code"] for s in samples])),
    ]
    latencies, paced, tails, rates, paced_rates = [], [], [], [], []
    for segment, (elapsed, scale) in zip(run_["segments"], run_["scales"]):
        raw = [ms for o in segment for ms in o["latency_ms"]]
        latencies += raw
        paced += [ms * scale for ms in raw]
        tails.append(p99_or_tail([ms * scale for ms in raw]))
        rates.append(sum(o["answered"] for o in segment) / elapsed)
        paced_rates.append(rates[-1] / scale)
    pct = median([pct for pct, __ in tails])
    tail = median([value for __, value in tails])
    e2e = {
        "setup_s": median([s["paced_setup_s"] for s in samples]),
        "shutdown_s": median([s["shutdown_s"] for s in samples]),
        "peak_rss_mb": run_["peak_rss_mb"],
        "success_frac": 1.0 - failed / attempted,
        "latency_p50_ms": median(paced),
        "latency_tail_ms": tail,
        "throughput_per_s": median(paced_rates),
    }
    record = {
        "latency_tail": "median over segments of %d bursts per client of "
                        "the highest percentile with ten bursts beyond it"
                        % SEGMENT_BURSTS,
        "latency_tail_pct": pct,
        "segments": [
            {"elapsed_s": elapsed, "scale": scale,
             "p50_ms": median([ms for o in segment for ms in o["latency_ms"]]),
             "scored": sum(o["answered"] for o in segment)}
            for segment, (elapsed, scale) in zip(run_["segments"],
                                                 run_["scales"])],
        "raw": {"setup_s": median([s["setup_s"] for s in samples]),
                "latency_p50_ms": median(latencies),
                "latency_tail_ms": p99_or_tail(latencies)[1],
                "throughput_per_s": median(rates)},
        "samples": {"setup_s": [s["paced_setup_s"] for s in samples],
                    "shutdown_s": [s["shutdown_s"] for s in samples]},
        "phases": {
            label: {"sent": sum(o["attempted"] for o in outcomes),
                    "succeeded": sum(o["answered"] for o in outcomes),
                    "refused": sum(o["refused"] for o in outcomes),
                    "failed": sum(o["attempted"] - o["answered"]
                                  for o in outcomes),
                    "requests": sum(len(o["latency_ms"]) for o in outcomes)}
            for label, outcomes in (("warm-up", run_["warm"]),
                                    ("measured", measured))},
        "new_streams": sum(s.created for s in run_["sources"]),
        "server_stats": run_["server_stats"],
    }
    report = ["phases (2 closed-loop HTTP clients, %d-arrival bursts):" % BURST]
    report += ["  %-9s sent=%d succeeded=%d failed=%d refused=%d requests=%d"
               % ((label,) + tuple(phase[key] for key in (
                   "sent", "succeeded", "failed", "refused", "requests")))
               for label, phase in record["phases"].items()]
    report.append("  streams at shutdown %d (%d new); program cache %s"
                  % (record["server_stats"]["streams"], record["new_streams"],
                     record["server_stats"]["program_cache"]))
    samples_out = {"setup_s": record["samples"]["setup_s"],
                   "shutdown_s": record["samples"]["shutdown_s"],
                   "latency_p50_ms": paced, "latency_tail_ms": paced}
    return {"e2e": e2e, "record": record, "checks": checks, "report": report,
            "samples": samples_out, "attempted": attempted, "failed": failed}
