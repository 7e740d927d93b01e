"""Span tracing from outside the program, and the per-layer table.

:func:`install` replaces module and class attributes of :mod:`repro` with
wrappers that record one span per call: name, start, end, parent span and
drain id.  The program's source is never edited; the wrappers see only the
arguments and results of each layer's public functions.  Spans stay in
memory and are written out once, at exit (:meth:`Tracer.dump`).

:func:`layer_metrics` turns a span file into the per-layer metrics of
``BENCHMARK.json``; :func:`layer_table` prints them with the self time and
call count of every traced function.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from statistics import median


class Tracer:
    """In-memory span store.  Thread-safe: each thread nests its own spans."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []  # one span list per thread
        self.counters = defaultdict(float)
        self.oldest_submit = None

    def _state(self):
        state = self._local.__dict__
        if "stack" not in state:
            state["stack"] = []
            state["spans"] = []
            with self._lock:
                self._buffers.append(state["spans"])
        return state

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] += value

    def wrap(self, name, fn, note=None, opens_drain=False, on_enter=None):
        """``fn`` recording a span per call.

        ``name`` is a string, or a callable of the call's arguments that
        returns one.  ``note(result, args, kwargs, enter)`` annotates the span
        (``enter`` is what ``on_enter(args, kwargs, start)`` returned), and a
        span with ``opens_drain`` starts a new drain id unless it already
        runs inside one.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            parent, drain = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            if opens_drain and drain is None:
                drain = span_id
            label = name if isinstance(name, str) else name(args, kwargs)
            stack.append((span_id, drain))
            start = time.perf_counter()
            enter = None if on_enter is None else on_enter(args, kwargs, start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = (None if note is None
                         else note(result, args, kwargs, enter))
                state["spans"].append(
                    (span_id, label, start, end, parent, drain, value))

        return traced

    def spans(self):
        with self._lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort(key=lambda span: span[0])
        return merged

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans(), "counters": dict(self.counters)},
                      handle)


def _patch(owner, attr, wrapper_factory):
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = classmethod(wrapper_factory(original.__func__))
    else:
        wrapped = wrapper_factory(original)
    setattr(owner, attr, wrapped)


def install(tracer):
    """Wrap every measured layer of :mod:`repro` for the rest of the process.

    Serving and training layers are wrapped together: a process exercises
    only the ones its workload reaches.  ``serve.workers`` is not wrapped —
    no workload runs the process drain backend.
    """
    from repro.core import ensemble, rae, rdae, scoring
    from repro.nn import batched, tape
    from repro.serve import frontend, router
    from repro.stream import scorer

    def span(owner, attr, name, **options):
        _patch(owner, attr, lambda fn: tracer.wrap(name, fn, **options))

    engine = frontend.FrontendEngine
    span(engine, "submit_line", "frontend.submit_line")
    span(engine, "submit_rows", "frontend.submit_rows")
    span(engine, "drain", "frontend.drain", opens_drain=True)

    shard_router = router.StreamRouter

    # Queue wait is exact for one producer thread; with several, a submit
    # racing a drain's start may be charged to the next drain.
    def mark_submit(args, kwargs, start):
        if tracer.oldest_submit is None:
            tracer.oldest_submit = start

    def take_oldest(args, kwargs, start):
        oldest, tracer.oldest_submit = tracer.oldest_submit, None
        return None if oldest is None else start - oldest

    def drained(result, args, kwargs, queue_wait):
        arrivals = sum(len(scores) for scores in (result or {}).values())
        return [arrivals, queue_wait if arrivals else None]

    span(shard_router, "submit", "router.submit", on_enter=mark_submit)
    span(shard_router, "drain", "router.drain", opens_drain=True,
         on_enter=take_oldest, note=drained)
    span(shard_router, "stats", "router.stats")
    span(shard_router, "save", "persistence.save")
    span(shard_router, "restore", "persistence.restore")
    span(router, "drain_group_key", "scoring.group_key",
         note=lambda result, *__: hash(result))
    span(router, "batched_session_scores", "scoring.forward",
         note=lambda result, args, kwargs, __: len(args[0]))
    span(scorer.StreamScorer, "state_dict", "stream.state_dict")
    span(scoring.ScoringSession, "ingest", "scoring.ingest")
    span(scoring.InferencePrograms, "score_batch", "scoring.score_batch",
         note=lambda result, *__: int(result is not None))

    def take_counters(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            deltas = fn(*args, **kwargs)
            for key, value in deltas.items():
                tracer.count("program_cache." + key, value)
            return deltas
        return counted

    _patch(scoring.InferencePrograms, "take_counters", take_counters)
    span(batched, "stacked_member_token", "scoring.member_token")
    span(batched.StackedScoreProgram, "run", "nn.stacked_replay")
    span(tape.ScoreTape, "run", "nn.score_tape_replay")
    span(scoring, "_prox", "rpca.prox")
    for name in ("hankelize", "deembed_lagged"):
        span(scoring, name, "tsops." + name)

    def epochs(result, args, kwargs, enter):
        return kwargs.get("epochs", args[3] if len(args) > 3 else 1)

    for module in (rae, rdae):
        span(module, "train_reconstruction", "nn.train_call", note=epochs)
        span(module, "_prox", "rpca.prox")
        span(module, "stopping_conditions", "convergence.check")
    span(ensemble, "_prox", "rpca.prox")
    span(ensemble, "stopping_conditions", "convergence.check")
    span(batched, "batched_train_reconstruction", "nn.batched_train",
         note=epochs)
    span(tape.TrainStepTape, "step",
         lambda args, kwargs: ("nn.tape_replay" if args[0].recorded
                               else "nn.tape_record"))
    for name in ("embed_lagged", "hankelize", "deembed_lagged"):
        span(rdae, name, "tsops." + name)
    span(rae.RAE, "fit", "core.rae_fit")
    span(rdae.RDAE, "fit", "core.rdae_fit")
    span(ensemble.RobustEnsemble, "fit", "core.ensemble_fit")


# ---------------------------------------------------------------------- #
# analysis


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, reach = 0.0, lo
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans):
    """``{span id: duration minus the time its child spans cover}``."""
    children = defaultdict(list)
    for span_id, __, start, end, parent, *__rest in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {span_id: (end - start) - covered_length(children[span_id],
                                                     start, end)
            for span_id, __, start, end, *__rest in spans}


#: (name, unit, what it measures, the end-to-end metric it should move).
LAYER_METRICS = [
    ("frontend.submit_us", "us",
     "submit_line + submit_rows self time per arrival",
     "latency_p50_ms on serve-fleet, throughput_per_s on serve-mixed"),
    ("frontend.deliver_ms", "ms",
     "FrontendEngine.drain minus its router drain and stats calls, per drain",
     "latency_p50_ms on serve-fleet"),
    ("frontend.drain_arrivals", "count", "arrivals per non-empty drain", "-"),
    ("router.submit_us", "us", "StreamRouter.submit per arrival",
     "latency_p50_ms on serve-fleet"),
    ("router.queue_wait_ms", "ms", "oldest pending submit to drain start",
     "latency_p50_ms on serve-fleet"),
    ("router.drain_ms", "ms", "StreamRouter.drain per non-empty drain",
     "throughput_per_s on both serve workloads"),
    ("router.stats_ms", "ms", "StreamRouter.stats per call inside a drain",
     "latency_p50_ms on serve-mixed"),
    ("router.groups_per_drain", "count",
     "distinct drain group keys per non-empty drain", "-"),
    ("stream.snapshot_us", "us",
     "StreamScorer.state_dict time per non-empty drain",
     "throughput_per_s on serve-fleet"),
    ("stream.snapshot_calls", "count",
     "StreamScorer.state_dict calls per non-empty drain", "-"),
    ("scoring.group_key_us", "us", "drain_group_key per call", "-"),
    ("scoring.member_token_us", "us", "stacked_member_token per call",
     "throughput_per_s on serve-fleet"),
    ("scoring.ingest_us", "us", "ScoringSession.ingest per call", "-"),
    ("scoring.forward_ms", "ms", "batched_session_scores per call",
     "throughput_per_s on serve-mixed"),
    ("scoring.rows_per_forward", "count",
     "sessions per batched_session_scores call", "-"),
    ("scoring.compiled_share", "frac",
     "InferencePrograms.score_batch calls that returned scores",
     "latency_tail_ms on serve-mixed"),
    ("scoring.program_hit_ratio", "frac",
     "program cache hits / (hits + misses + invalidations)",
     "latency_tail_ms on serve-mixed"),
    ("nn.stacked_replay_us", "us", "StackedScoreProgram.run per call",
     "throughput_per_s on serve-fleet"),
    ("nn.score_tape_replay_us", "us", "ScoreTape.run per call",
     "throughput_per_s on serve-mixed"),
    ("nn.train_call_ms", "ms", "train_reconstruction per call",
     "latency_p50_ms on train"),
    ("nn.tape_record_ms", "ms", "TrainStepTape.step per recording step",
     "latency_p50_ms on train"),
    ("nn.tape_replay_ms", "ms", "TrainStepTape.step per replayed step",
     "latency_p50_ms on train"),
    ("nn.tape_replay_share", "frac",
     "replayed steps / training epochs requested", "latency_p50_ms on train"),
    ("nn.batched_train_ms", "ms", "batched_train_reconstruction per call",
     "latency_p50_ms on train (ensemble fit)"),
    ("rpca.prox_us", "us", "apply_prox per call", "latency_p50_ms on train"),
    ("convergence.check_us", "us", "stopping_conditions per call",
     "latency_p50_ms on train"),
    ("admm.iterations", "count", "ADMM iterations of one fit round",
     "latency_p50_ms on train"),
    ("admm.rae_iteration_ms", "ms", "RAE epoch_seconds_ mean",
     "latency_p50_ms on train"),
    ("admm.rdae_iteration_ms", "ms", "RDAE epoch_seconds_ mean",
     "latency_p50_ms on train"),
    ("ensemble.fallback_members", "count", "len(compile_fallback_)",
     "latency_p50_ms on train (ensemble fit)"),
    ("tsops.hankel_ms", "ms",
     "embed_lagged + hankelize + deembed_lagged per RDAE fit",
     "latency_p50_ms on train (RDAE fit)"),
    ("persistence.restore_s", "s", "StreamRouter.restore per call",
     "setup_s on both serve workloads"),
    ("persistence.save_s", "s", "StreamRouter.save per call",
     "shutdown_s on serve-mixed"),
    ("trace.overhead_frac", "frac",
     "untraced over traced throughput_per_s, minus one", "-"),
    ("trace.spans", "count", "spans recorded by the traced process", "-"),
]

_SERVE_ONLY = "serving layer; this workload never serves"
_TRAIN_ONLY = "training layer; this workload never fits"


def _serving_metric(name):
    return (name.startswith(("frontend.", "router.", "stream.", "scoring.",
                             "persistence.", "nn.stacked", "nn.score_tape")))


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def layer_metrics(documents, fits=()):
    """Per-layer values from span files plus fit results.

    ``documents`` are loaded span files (one per traced process); ``fits``
    are the per-round fit records of the train workload.  Returns
    ``{name: value or None}``; None means the workload never reached the
    layer.
    """
    spans, counters = [], defaultdict(float)
    for index, document in enumerate(documents):
        # Span ids restart in every process: make them unique across files.
        offset = index * 10**12
        for span_id, name, start, end, parent, drain, note in document["spans"]:
            spans.append((span_id + offset, name, start, end,
                          None if parent is None else parent + offset,
                          None if drain is None else drain + offset, note))
        for key, value in document["counters"].items():
            counters[key] += value
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def durations(name, scale):
        return [(end - start) * scale for __, __n, start, end, *__r
                in by_name[name]]

    def per_call(name, scale):
        return _mean(durations(name, scale))

    drains = [span for span in by_name["router.drain"] if span[6][0] > 0]
    drain_ids = {span[5] for span in drains}
    arrivals = len(by_name["router.submit"])
    out = {}
    submit_self = sum(own[span[0]] for name in ("frontend.submit_line",
                                                "frontend.submit_rows")
                      for span in by_name[name])
    out["frontend.submit_us"] = (submit_self * 1e6 / arrivals
                                 if arrivals and by_name["frontend.submit_rows"]
                                 else None)
    engine_drains = [span for span in by_name["frontend.drain"]
                     if span[5] in drain_ids]
    out["frontend.deliver_ms"] = _mean(own[span[0]] * 1e3
                                       for span in engine_drains)
    out["frontend.drain_arrivals"] = _mean(span[6][0] for span in drains)
    out["router.submit_us"] = per_call("router.submit", 1e6)
    out["router.queue_wait_ms"] = _mean(
        span[6][1] * 1e3 for span in drains if span[6][1] is not None)
    out["router.drain_ms"] = _mean((span[3] - span[2]) * 1e3 for span in drains)
    out["router.stats_ms"] = _mean(
        (span[3] - span[2]) * 1e3 for span in by_name["router.stats"]
        if span[5] is not None)
    keys = defaultdict(set)
    for span in by_name["scoring.group_key"]:
        keys[span[5]].add(span[6])
    out["router.groups_per_drain"] = (_mean(len(keys[d]) for d in drain_ids)
                                      if drains else None)
    snapshot_time, snapshot_calls = defaultdict(float), defaultdict(int)
    for span in by_name["stream.state_dict"]:
        if span[5] in drain_ids:
            snapshot_time[span[5]] += span[3] - span[2]
            snapshot_calls[span[5]] += 1
    out["stream.snapshot_us"] = (_mean(snapshot_time[d] * 1e6
                                       for d in drain_ids) if drains else None)
    out["stream.snapshot_calls"] = (_mean(snapshot_calls[d] for d in drain_ids)
                                    if drains else None)
    out["scoring.group_key_us"] = per_call("scoring.group_key", 1e6)
    out["scoring.member_token_us"] = per_call("scoring.member_token", 1e6)
    out["scoring.ingest_us"] = per_call("scoring.ingest", 1e6)
    out["scoring.forward_ms"] = per_call("scoring.forward", 1e3)
    out["scoring.rows_per_forward"] = _mean(span[6] for span
                                            in by_name["scoring.forward"])
    out["scoring.compiled_share"] = _mean(span[6] for span
                                          in by_name["scoring.score_batch"])
    lookups = sum(counters.get("program_cache." + key, 0.0)
                  for key in ("hits", "misses", "invalidations"))
    out["scoring.program_hit_ratio"] = (
        counters["program_cache.hits"] / lookups if lookups else None)
    out["nn.stacked_replay_us"] = per_call("nn.stacked_replay", 1e6)
    out["nn.score_tape_replay_us"] = per_call("nn.score_tape_replay", 1e6)
    out["nn.train_call_ms"] = per_call("nn.train_call", 1e3)
    out["nn.tape_record_ms"] = per_call("nn.tape_record", 1e3)
    out["nn.tape_replay_ms"] = per_call("nn.tape_replay", 1e3)
    epochs = sum(span[6] for name in ("nn.train_call", "nn.batched_train")
                 for span in by_name[name])
    out["nn.tape_replay_share"] = (len(by_name["nn.tape_replay"]) / epochs
                                   if epochs else None)
    out["nn.batched_train_ms"] = per_call("nn.batched_train", 1e3)
    out["rpca.prox_us"] = per_call("rpca.prox", 1e6)
    out["convergence.check_us"] = per_call("convergence.check", 1e6)
    fits = list(fits)
    out["admm.iterations"] = (median([fit["admm_iterations"] for fit in fits])
                              if fits else None)
    out["admm.rae_iteration_ms"] = (median([fit["rae_iteration_ms"]
                                            for fit in fits]) if fits else None)
    out["admm.rdae_iteration_ms"] = (median([fit["rdae_iteration_ms"]
                                             for fit in fits])
                                     if fits else None)
    out["ensemble.fallback_members"] = (max(fit["ensemble_fallback"]
                                            for fit in fits) if fits else None)
    hankel = sum((span[3] - span[2]) for name in (
        "tsops.embed_lagged", "tsops.hankelize", "tsops.deembed_lagged")
        for span in by_name[name])
    rdae_fits = len(by_name["core.rdae_fit"])
    out["tsops.hankel_ms"] = hankel * 1e3 / rdae_fits if rdae_fits else None
    out["persistence.restore_s"] = per_call("persistence.restore", 1.0)
    out["persistence.save_s"] = per_call("persistence.save", 1.0)
    out["trace.spans"] = len(spans)
    return out, _span_table(by_name, own)


def _span_table(by_name, own):
    rows = []
    for name, spans in sorted(by_name.items()):
        if not spans:
            continue
        total = sum(end - start for __, __n, start, end, *__r in spans)
        rows.append((name, len(spans), total, sum(own[s[0]] for s in spans)))
    return rows


def layer_table(values, span_rows, workload):
    """The per-layer report: every named metric, then every traced span."""
    serve = workload.startswith("serve")
    lines = ["per-layer metrics (%s, traced run):" % workload,
             "  %-28s %14s  %-6s %s" % ("metric", "value", "unit", "moves")]
    for name, unit, what, moves in LAYER_METRICS:
        value = values.get(name)
        if value is None:
            if serve and not _serving_metric(name):
                reason = _TRAIN_ONLY
            elif not serve and _serving_metric(name):
                reason = _SERVE_ONLY
            else:
                reason = "not reached on this workload"
            lines.append("  %-28s %14s  %-6s %s" % (name, "-", unit, reason))
        else:
            lines.append("  %-28s %14.6g  %-6s %s" % (name, value, unit, moves))
    lines.append("  serve.workers: not measured; no workload runs the "
                 "process drain backend")
    lines.append("traced spans (self time excludes child spans):")
    lines.append("  %-26s %9s %12s %12s" % ("span", "calls", "total_s",
                                           "self_s"))
    for name, calls, total, own in span_rows:
        lines.append("  %-26s %9d %12.6f %12.6f" % (name, calls, total, own))
    return "\n".join(lines)
