"""StreamRouter: sharded multi-stream serving with batched drains.

One :class:`repro.stream.StreamScorer` serves one stream.  Production
monitoring serves fleets — thousands of independent series arriving
interleaved and in bursts.  :class:`StreamRouter` owns many named streams
(one scorer shard each, keyed by stream id) behind a bounded ingestion
queue that decouples *arrival* from *scoring*:

* ``submit`` / ``submit_many`` enqueue arrivals in O(1) and never run a
  forward pass; the queue is the backpressure boundary (see ``on_full``).
  Each queued arrival carries an optional ``origin`` tag that moves with
  it through evictions, re-queues and drains, so a frontend routes scores
  back to their submitters without a copy of the queue of its own.
* ``drain`` pops the queued burst, ingests each stream's pending points as
  one micro-batch, and refreshes every session-backed shard that shares an
  architecture fingerprint and a slice shape through **one** grouped
  forward pass (:func:`repro.core.batched_session_scores`) — with ``S``
  same-spec shards (shared detector *or* per-stream fitted copies), a
  drain pays ~1 forward instead of ``S``.  Shards whose fitted
  architecture reports a bounded receptive field contribute only window
  *tails* to those forwards (O(receptive field) per shard, not O(window)).
  Grouped forwards replay **compiled inference programs** (grad-free score
  tapes; stacked-weight programs for cross-detector groups) cached per
  router — ``repro serve --eager`` / ``REPRO_EAGER=1`` opts back into
  eager forwards, bit-identically.

Per-stream scores are identical (to floating-point batching tolerance) to a
dedicated :class:`StreamScorer` fed the same chunks: the router runs the
scorer's own staged chunk protocol, it only reorganises *when* the forward
passes happen.

Concurrency contract
--------------------

``submit``/``submit_many``/``add_stream`` are thread-safe: queue and
per-stream counter mutation happens under one internal lock, so any number
of producer threads may feed the router while another thread drains.
``stats``/``stream_stats`` take the same lock once and return a consistent
snapshot (counters never tear mid-drain).  ``drain`` itself is serialised —
concurrent calls (e.g. from several frontend connection threads) queue up
on a drain lock so per-stream chunk ordering is preserved.  Each drain
scores its shard groups one after another on the calling thread.
``save``/``restore`` must not race an active ``drain`` of the same router.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque

import numpy as np

from ..core import InferencePrograms, batched_session_scores, drain_group_key
from ..stream import StreamScorer
from ..stream.scorer import require_finite

__all__ = ["StreamRouter", "QueueFullError", "DrainError", "DrainResult",
           "score_shard_group"]

_MANIFEST = "router.json"
_STATE = "state.npz"


class QueueFullError(RuntimeError):
    """Raised by ``submit`` when the ingestion queue is at capacity."""


class DrainResult(dict):
    """``{stream_id: scores}`` from one drain, plus per scored stream:

    * ``origins[stream_id]`` — the ``origin`` tag each arrival was
      submitted with, one per score (``None`` for untagged arrivals and
      for a restored backlog);
    * ``first_index[stream_id]`` — the stream's ``scored`` count before
      this drain, i.e. the output index of its first score.
    """

    def __init__(self, results=(), origins=None, first_index=None):
        super().__init__(results)
        self.origins = {} if origins is None else origins
        self.first_index = {} if first_index is None else first_index


class DrainError(RuntimeError):
    """Raised by ``drain`` when one or more shards failed to ingest.

    A faulty shard (most commonly an unfitted detector) must not destroy
    the burst: healthy streams are scored normally and their results are
    attached as :attr:`results` (a :class:`DrainResult`); the failing
    streams' arrivals are returned to the front of the queue and their
    exceptions collected in :attr:`failures` (``{stream_id: exception}``).
    """

    def __init__(self, message, results, failures):
        super().__init__(message)
        self.results = results
        self.failures = failures


def score_shard_group(shards, items, batch_size, programs=None):
    """Score one shard group: ``items = [(stream_id, rows)]``.

    The unit of work of every drain.  Ingests each stream's pending points
    as one micro-batch, then refreshes the group's session-backed shards
    through grouped *tail* forwards
    (:func:`repro.core.batched_session_scores` with the chunk sizes) —
    bounded slices for receptive-field-capable architectures, full windows
    otherwise.  Touches only the ``shards`` mapping it is given, never a
    queue or counters, so it runs without the router lock.

    Fault isolation covers the whole shard lifecycle: a stream that fails
    to *ingest* (e.g. an unfitted detector) never mutated its shard, and a
    stream whose detector fails while *scoring* is rolled back to its
    pre-chunk state, so the caller can re-queue its rows without
    double-ingesting them on the next drain.  The undo point costs
    O(chunk): the ring's total plus the rows the chunk overwrites, never
    a snapshot of the whole window.  When a faulty detector poisons a
    *grouped* forward, the group falls back to per-shard scoring so only
    the faulty stream(s) fail — bit-identically for the healthy ones
    (stable kernels make each position's arithmetic independent of the
    stacked batch).

    ``programs`` (an :class:`repro.core.InferencePrograms`, or None for
    eager) is handed to :func:`repro.core.batched_session_scores`; groups
    whose shards hold *distinct same-spec detectors* then replay one
    stacked compiled forward instead of per-detector eager forwards —
    bit-identically.

    Returns ``(results, failures)`` where failures map stream ids to
    ``(exception, rows)`` so the caller can re-queue.
    """
    results, failures, deferred = {}, {}, []
    for stream_id, rows in items:
        scorer = shards[stream_id]
        chunk = (rows if isinstance(rows, np.ndarray) and rows.ndim == 2
                 else np.stack(rows))
        # Pre-chunk undo point: scoring failures must roll the shard back
        # so the re-queued rows are not double-ingested on the next drain.
        # (Ingest failures need no rollback — _ingest_chunk validates
        # before it mutates.)
        undo = scorer._checkpoint(chunk.shape[0])
        try:
            n, needs_scores = scorer._ingest_chunk(chunk)
        except Exception as exc:  # noqa: BLE001 - isolate faulty shards
            failures[stream_id] = (exc, rows)
            continue
        if not needs_scores:
            results[stream_id] = np.zeros(n)
        elif scorer._session is not None:
            deferred.append((stream_id, scorer, n, undo))
        else:
            try:
                results[stream_id] = scorer._collect_chunk(
                    n, scorer._window_scores()
                )
            except Exception as exc:  # noqa: BLE001
                scorer._rollback(undo)
                failures[stream_id] = (exc, rows)
    if deferred:
        sessions = [scorer._session for __, scorer, __n, __u in deferred]
        counts = [n for __, __s, n, __u in deferred]
        try:
            tails = batched_session_scores(
                sessions, batch_size=batch_size, tail=counts,
                programs=programs,
            )
        except Exception:  # noqa: BLE001 - a faulty detector in the stack
            rows_by_stream = dict(items)
            for stream_id, scorer, n, undo in deferred:
                try:
                    results[stream_id] = scorer._collect_chunk(
                        n, scorer._session.last_scores(n)
                    )
                except Exception as exc:  # noqa: BLE001
                    scorer._rollback(undo)
                    failures[stream_id] = (exc, rows_by_stream[stream_id])
        else:
            for (stream_id, scorer, n, __undo), tail in zip(deferred, tails):
                results[stream_id] = scorer._collect_chunk(n, tail)
    return results, failures


class StreamRouter:
    """Route named streams to scorer shards; score bursts as micro-batches.

    Parameters
    ----------
    detector: default detector for shards created on first sight of a new
        stream id (and by ``add_stream`` calls that pass none).  Sharing one
        fitted RAE/RDAE across shards is what lets a drain group their
        forward passes; per-stream detectors are allowed but score solo.
    window / min_points / mode: per-shard :class:`StreamScorer` defaults,
        overridable per stream in :meth:`add_stream`.
    queue_limit: bound on queued-but-unscored arrivals across all streams.
    on_full: backpressure policy when the queue is at capacity:
        ``'error'`` (default) raises :class:`QueueFullError` — the caller
        must drain; ``'drop_oldest'`` evicts the oldest queued arrival to
        make room and counts it against its stream's ``dropped`` stat.
    batch_size: maximum shards stacked into one grouped forward per drain.
    """

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded):
    #: every access to these attributes outside __init__/__del__ and
    #: *_locked helpers must sit inside ``with self._lock:``.
    _GUARDED_BY = {
        "_queue": "_lock",
        "_submitted": "_lock",
        "_scored": "_lock",
        "_dropped": "_lock",
        "_dropped_total": "_lock",
        "_dims": "_lock",
        "_drains": "_lock",
        "_shards": "_lock",
        "_prog_counters": "_lock",
    }

    def __init__(self, detector=None, *, window=256, min_points=2,
                 mode="auto", queue_limit=1024, batch_size=32,
                 on_full="error"):
        if detector is not None:
            from ..api import as_detector

            # Coerce specs/names here (not per shard) so every shard shares
            # ONE built instance — which is what lets drains group forwards.
            detector = as_detector(detector)
        self.detector = detector
        self.window = int(window)
        self.min_points = int(min_points)
        self.mode = mode
        self.queue_limit = int(queue_limit)
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if on_full not in ("error", "drop_oldest"):
            raise ValueError(
                "on_full must be 'error' or 'drop_oldest', got %r" % on_full
            )
        self.on_full = on_full
        self.batch_size = max(int(batch_size), 1)
        self._shards = {}
        self._dims = {}  # per-stream row width, fixed by the first arrival
        self._queue = deque()  # (stream_id, row, origin)
        self._submitted = {}
        self._scored = {}
        self._dropped = {}
        self._dropped_total = 0  # sum of _dropped, kept for O(1) reads
        self._drains = 0
        # _lock guards the queue, counters and shard registry (submit-side
        # state); _drain_lock serialises whole drains.  Lock order: a drain
        # takes _drain_lock first, then _lock for queue/counter mutation.
        self._lock = threading.RLock()
        self._drain_lock = threading.Lock()
        # Compiled-inference program cache shared by every shard of this
        # router (internally locked; not in _GUARDED_BY).  _prog_counters
        # holds the persistent totals stats()/save absorb drain deltas
        # into.
        self._programs = InferencePrograms()
        self._prog_counters = {"hits": 0, "misses": 0, "invalidations": 0}

    # ------------------------------------------------------------------ #
    # stream management
    def add_stream(self, stream_id, detector=None, *, window=None,
                   min_points=None, mode=None):
        """Create a shard for ``stream_id``; returns its scorer.

        Thread-safe: shard registration happens under the router lock, so
        concurrent producers racing to create the same stream see exactly
        one winner (the loser gets the usual ``ValueError``).
        """
        if detector is not None:
            from ..api import as_detector

            detector = as_detector(detector)
        with self._lock:
            if stream_id in self._shards:
                raise ValueError("stream %r already exists" % (stream_id,))
            detector = detector if detector is not None else self.detector
            if detector is None:
                raise ValueError(
                    "no detector for stream %r: pass one here or give the "
                    "router a default" % (stream_id,)
                )
            scorer = StreamScorer(
                detector,
                window=self.window if window is None else window,
                min_points=self.min_points if min_points is None else min_points,
                mode=self.mode if mode is None else mode,
                programs=self._programs,
            )
            self._shards[stream_id] = scorer
            self._submitted.setdefault(stream_id, 0)
            self._scored.setdefault(stream_id, 0)
            self._dropped.setdefault(stream_id, 0)
            return scorer

    def stream(self, stream_id):
        """The shard scorer serving ``stream_id``."""
        with self._lock:
            return self._shards[stream_id]

    def streams(self):
        """Stream ids currently served, in creation order."""
        with self._lock:
            return list(self._shards)

    def __contains__(self, stream_id):
        with self._lock:
            return stream_id in self._shards

    def __len__(self):
        with self._lock:
            return len(self._shards)

    # ------------------------------------------------------------------ #
    # ingestion
    def _ensure_stream_locked(self, stream_id):
        if stream_id not in self._shards:
            if self.detector is None:
                raise KeyError(
                    "unknown stream %r and the router has no default "
                    "detector; add_stream() it first" % (stream_id,)
                )
            self.add_stream(stream_id)

    def _check_dims_locked(self, stream_id, width):
        # Validate at submission, not at drain: a malformed arrival must be
        # rejected here, never poison a whole drained burst.
        expected = self._dims.get(stream_id)
        if expected is None:
            scorer = self._shards[stream_id]
            if scorer._session is not None:
                expected = scorer._session.dims
            elif scorer._ring is not None:
                expected = scorer._ring.dims
        if expected is not None and width != expected:
            raise ValueError(
                "stream %r expects %d-dimensional observations, got %d"
                % (stream_id, expected, width)
            )
        self._dims[stream_id] = width

    def _enqueue_locked(self, stream_id, row, origin):
        if len(self._queue) >= self.queue_limit:
            if self.on_full == "error":
                raise QueueFullError(
                    "ingestion queue full (%d queued arrivals); drain() the "
                    "router or raise queue_limit" % len(self._queue)
                )
            old_sid, __, __ = self._queue.popleft()
            self._dropped[old_sid] += 1
            self._dropped_total += 1
        self._queue.append((stream_id, row, origin))
        self._submitted[stream_id] += 1

    def submit(self, stream_id, point, origin=None):
        """Enqueue one arrival for ``stream_id``; O(1), never scores.

        ``origin`` is an opaque tag (any object) that rides the queue with
        the arrival and comes back with its score in
        :attr:`DrainResult.origins`; it is never saved, so a restored
        backlog comes back untagged (``None``).

        Thread-safe: validation, enqueueing and counter updates happen
        atomically under the router lock, so concurrent producers never
        tear the queue or the per-stream counters (see the module-level
        concurrency contract).  Raises ``ValueError`` for NaN or infinite
        values, before anything is queued.
        """
        row = np.asarray(point, dtype=np.float64).reshape(-1)
        require_finite(row, stream_id)
        with self._lock:
            self._ensure_stream_locked(stream_id)
            self._check_dims_locked(stream_id, row.shape[0])
            self._enqueue_locked(stream_id, row, origin)
        return self

    def submit_many(self, stream_id, points, origin=None):
        """Enqueue every row of a ``(n, dims)`` (or ``(n,)``) chunk.

        Every row is tagged with ``origin`` (see :meth:`submit`).
        Thread-safe, and atomic as a chunk: the rows enqueue contiguously
        even when other producers are submitting concurrently.  A chunk
        holding any NaN or infinite value, or of more than two dimensions,
        is rejected whole (``ValueError``).
        """
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(
                "stream %r: submit_many takes a (n,) or (n, dims) chunk, "
                "got shape %s" % (stream_id, arr.shape)
            )
        require_finite(arr, stream_id)
        with self._lock:
            self._ensure_stream_locked(stream_id)
            if arr.shape[0]:
                self._check_dims_locked(stream_id, arr.shape[1])
            for row in arr:
                self._enqueue_locked(stream_id, row, origin)
        return self

    # ------------------------------------------------------------------ #
    # scoring
    def drain(self, max_points=None):
        """Score queued arrivals; returns ``{stream_id: scores}``.

        Pops up to ``max_points`` arrivals (all by default) in FIFO order,
        ingests each stream's pending points as one micro-batch, then
        refreshes all session-backed shards in grouped forward passes.
        Scores arrive in per-stream submission order; streams appear in
        first-arrival order of this drain.  The mapping is a
        :class:`DrainResult`: its ``origins`` give each score's submission
        tag and its ``first_index`` each stream's index of its first score.

        Concurrency: drains are serialised against each other (a second
        caller blocks until the first finishes), and producers may keep
        submitting throughout.

        A shard that fails to ingest (e.g. an unfitted detector) never
        destroys the burst: the other streams are scored normally, the
        faulty streams' arrivals return to the front of the queue, and a
        :class:`DrainError` carrying both the healthy results and the
        per-stream failures is raised.
        """
        with self._drain_lock:
            with self._lock:
                count = len(self._queue)
                if max_points is not None:
                    count = min(count, max(int(max_points), 0))
                if not count:
                    return DrainResult()
                chunks, origins = {}, {}
                for __ in range(count):
                    stream_id, row, origin = self._queue.popleft()
                    chunks.setdefault(stream_id, []).append(row)
                    origins.setdefault(stream_id, []).append(origin)
                # Snapshot the participating shards while the lock is
                # held: scoring runs without it, and must not walk
                # self._shards while a producer's add_stream mutates it.
                # Shard objects are safe to score unlocked — only this
                # drain touches them (drains are serialised, submit never
                # runs a scorer).
                shards = {stream_id: self._shards[stream_id]
                          for stream_id in chunks}
            # Partition the burst into same-architecture shard groups —
            # the unit that shares grouped forwards.  Keyed by architecture
            # fingerprint, so distinct same-spec detectors (one per stream)
            # drain through one stacked forward; detectors the fingerprint
            # declines (unfitted, baselines) fall back to identity keys.
            groups = {}
            for stream_id, rows in chunks.items():
                key = drain_group_key(shards[stream_id].detector)
                groups.setdefault(key, []).append((stream_id, rows))
            results, failures = {}, {}
            for group in groups.values():
                group_results, group_failures = score_shard_group(
                    shards, group, self.batch_size, programs=self._programs
                )
                results.update(group_results)
                failures.update(group_failures)
            first_index = {}
            with self._lock:
                for stream_id, (__, rows) in failures.items():
                    for row, origin in zip(reversed(rows),
                                           reversed(origins[stream_id])):
                        self._queue.appendleft((stream_id, row, origin))
                for stream_id, scores in results.items():
                    first_index[stream_id] = self._scored[stream_id]
                    self._scored[stream_id] += scores.shape[0]
                self._drains += 1
                self._absorb_program_counters_locked()
        # Streams appear in first-arrival order of the drain.
        results = DrainResult(
            {stream_id: results[stream_id]
             for stream_id in chunks if stream_id in results},
            origins={stream_id: origins[stream_id] for stream_id in results},
            first_index=first_index,
        )
        if failures:
            raise DrainError(
                "%d stream(s) failed to ingest (%s); their arrivals were "
                "re-queued, %d healthy stream(s) scored (see .results)"
                % (len(failures),
                   ", ".join("%r: %s" % (sid, exc)
                             for sid, (exc, __) in failures.items()),
                   len(results)),
                results,
                {sid: exc for sid, (exc, __) in failures.items()},
            )
        return results

    # ------------------------------------------------------------------ #
    # persistence-backed shard recovery
    def _persistable_detector(self, detector, directory, index):
        """Manifest entry for ``detector``: spec and/or npz weights."""
        from ..api import DetectorSpec, SpecError
        from ..core import RAE, RDAE, save_detector

        entry = {"spec": None, "weights": None}
        try:
            entry["spec"] = DetectorSpec.from_detector(detector).to_dict()
        except SpecError:
            pass  # not a registry class; weights may still carry it
        if isinstance(detector, (RAE, RDAE)) and detector.is_fitted():
            filename = "detector%d.npz" % index
            save_detector(detector, os.path.join(directory, filename))
            entry["weights"] = filename
        if entry["spec"] is None and entry["weights"] is None:
            raise ValueError(
                "cannot persist %s for restore: not a registry method and "
                "not a saveable fitted RAE/RDAE" % type(detector).__name__
            )
        return entry

    def save(self, directory):
        """Persist the router so :meth:`restore` rebuilds it elsewhere.

        Writes ``router.json`` (config, per-detector spec/weights refs,
        per-stream scorer configs + counters, the still-queued arrivals)
        and ``state.npz`` (every shard's retained window) into
        ``directory``.  Each distinct detector is saved once — as a
        :class:`repro.api.DetectorSpec` when it is a registry method, plus
        npz weights when it is a fitted RAE/RDAE — so a restored shard
        round-trips *how it was built*, not just its numbers.

        Returns the manifest path.  Takes the drain and router locks, so
        concurrent producers are held off while the snapshot is cut; do
        not call it from inside a drain.
        """
        os.makedirs(directory, exist_ok=True)
        with self._drain_lock, self._lock:
            return self._save_locked(directory)

    def _save_locked(self, directory):
        self._absorb_program_counters_locked()
        detectors, by_id = [], {}

        def register(detector):
            key = id(detector)
            if key not in by_id:
                by_id[key] = len(detectors)
                detectors.append(
                    self._persistable_detector(detector, directory, len(detectors))
                )
            return by_id[key]

        default = None if self.detector is None else register(self.detector)
        streams, arrays = [], {}
        for i, (stream_id, scorer) in enumerate(self._shards.items()):
            state = scorer.state_dict()
            arrays["s%d::window" % i] = state["window"]
            # score/score_new shards evaluate fitted state at drain time;
            # unless the detector is stateless-scoring, only restored
            # weights (or a restore-time override) can resume them.
            needs_fit = (
                scorer.mode in ("score", "score_new")
                and not getattr(scorer.detector, "stateless_scoring", False)
            )
            index = register(scorer.detector)
            if (needs_fit and detectors[index]["weights"] is None
                    and index != default):
                # The restore-time detector= override only replaces the
                # router DEFAULT; a weightless per-stream detector would be
                # a dead end no restore() call could ever rebuild — refuse
                # now, while the caller can still fix the configuration.
                raise ValueError(
                    "stream %r (mode %r) has a per-stream detector whose "
                    "fitted state cannot be persisted (%s, spec-only) and "
                    "which no restore() override could replace. Serve it "
                    "in 'refit' mode, use a persistable RAE/RDAE, or make "
                    "it the router default."
                    % (stream_id, scorer.mode,
                       type(scorer.detector).__name__)
                )
            streams.append({
                "id": stream_id,
                "needs_fitted_detector": needs_fit,
                "detector": index,
                "window": scorer.window,
                "min_points": scorer.min_points,
                "mode": scorer.mode,
                "kind": state["kind"],
                "dims": state["dims"],
                "total": state["total"],
                "submitted": self._submitted[stream_id],
                "scored": self._scored[stream_id],
                "dropped": self._dropped[stream_id],
                "dims_seen": self._dims.get(stream_id),
            })
        manifest = {
            "format": "repro.router",
            "version": 1,
            "config": {
                "window": self.window,
                "min_points": self.min_points,
                "mode": self.mode,
                "queue_limit": self.queue_limit,
                "batch_size": self.batch_size,
                "on_full": self.on_full,
            },
            "detectors": detectors,
            "default_detector": default,
            "streams": streams,
            # JSON floats round-trip exactly in Python, so re-queued
            # arrivals score identically after a restore.
            "queue": [[stream_id, row.tolist()]
                      for stream_id, row, __ in self._queue],
            "drains": self._drains,
            "program_cache": dict(self._prog_counters),
        }
        np.savez(os.path.join(directory, _STATE), **arrays)
        path = os.path.join(directory, _MANIFEST)
        with open(path, "w") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        return path

    @classmethod
    def restore(cls, directory, detector=None):
        """Rebuild a router saved by :meth:`save`; scoring resumes exactly.

        Every shard is rebuilt from its saved spec/weights and reloaded
        with its retained window, arrival counts, and stats, and the
        still-queued arrivals are re-queued — feeding the restored router
        the same subsequent arrivals as a never-restarted one produces the
        same per-stream scores.

        ``detector=`` substitutes for the saved *default* detector when its
        fitted state could not be persisted (spec-only save); saved npz
        weights always win over the override — the retained session
        windows were scaled by the saved detector, so replacing it would
        silently change scores.  Note a
        spec-only restore rebuilds detectors *unfitted*: fine for ``refit``
        shards (the paper's transductive protocol refits per window
        anyway) and stateless-scoring detectors, but ``score``/
        ``score_new`` shards whose fitted state could not be persisted are
        rejected here, up front, with the remedy — never at first drain.

        Manifests written while the router still had parallel drain
        backends carry two extra execution keys in their config; restore
        ignores them (they never affected scores) and drains serially.
        Older saves also carry each session's score cache (``s%d::cache``
        arrays, a ``cache_total`` per stream); restore ignores it, since
        the retained window alone resumes every score bit-exactly.
        """
        with open(os.path.join(directory, _MANIFEST)) as handle:
            manifest = json.load(handle)
        if manifest.get("format") != "repro.router":
            raise ValueError("%s is not a router manifest" % directory)
        config = manifest["config"]
        built, spec_only = {}, set()

        def build(index):
            if index is None:
                return None
            if index not in built:
                entry = manifest["detectors"][index]
                # Saved weights always win: the retained session windows
                # were scaled by THAT detector, so substituting another
                # would silently change scores.  The override is a
                # fallback for a default whose state could not persist.
                if entry["weights"]:
                    from ..core import load_detector

                    built[index] = load_detector(
                        os.path.join(directory, entry["weights"])
                    )
                elif detector is not None and index == manifest["default_detector"]:
                    built[index] = detector
                else:
                    from ..api import DetectorSpec

                    # A spec rebuild is UNFITTED — fine for refit shards
                    # and stateless-scoring detectors, fatal for shards
                    # that score through fitted state (checked below).
                    built[index] = DetectorSpec.from_dict(entry["spec"]).build()
                    spec_only.add(index)
            return built[index]

        router = cls(
            build(manifest["default_detector"]),
            window=config["window"],
            min_points=config["min_points"],
            mode=config["mode"],
            queue_limit=config["queue_limit"],
            batch_size=config["batch_size"],
            on_full=config["on_full"],
        )
        state_path = os.path.join(directory, _STATE)
        blob = np.load(state_path) if os.path.exists(state_path) else None
        for i, entry in enumerate(manifest["streams"]):
            shard_detector = build(entry["detector"])
            if (entry.get("needs_fitted_detector")
                    and entry["detector"] in spec_only):
                raise ValueError(
                    "stream %r (mode %r) scores through fitted state, but "
                    "its detector could only be rebuilt unfitted from its "
                    "spec (no saved weights) — resuming would fail on the "
                    "first drain. Pass detector= with a fitted instance, "
                    "or serve this method in 'refit' mode."
                    % (entry["id"], entry["mode"])
                )
            scorer = router.add_stream(
                entry["id"],
                detector=shard_detector,
                window=entry["window"],
                min_points=entry["min_points"],
                mode=entry["mode"],
            )
            state = {
                "kind": entry["kind"],
                "dims": entry["dims"],
                "window": blob["s%d::window" % i] if blob is not None
                else np.zeros((0, 0)),
                "total": entry["total"],
            }
            scorer.load_state_dict(state)
            router._submitted[entry["id"]] = entry["submitted"]
            router._scored[entry["id"]] = entry["scored"]
            router._dropped[entry["id"]] = entry["dropped"]
            router._dropped_total += entry["dropped"]
            if entry.get("dims_seen") is not None:
                router._dims[entry["id"]] = entry["dims_seen"]
        for stream_id, row in manifest["queue"]:
            # Straight onto the queue, untagged: these arrivals were
            # already counted by submit() before the save.
            router._queue.append(
                (stream_id, np.asarray(row, dtype=np.float64), None))
        router._drains = manifest["drains"]
        # Program-cache counters persist as observability totals (the
        # compiled programs themselves are process-local and recompile on
        # first drain — a miss, counted on top of the restored totals).
        saved_counters = manifest.get("program_cache")
        if saved_counters:
            router._prog_counters.update(saved_counters)
        return router

    # ------------------------------------------------------------------ #
    # observability
    def _absorb_program_counters_locked(self):
        """Fold pending compiled-path cache deltas into the persistent
        totals; caller must hold ``self._lock``."""
        for key, value in self._programs.take_counters().items():
            self._prog_counters[key] += value

    def _stream_stats_locked(self, stream_id):
        """One stream's counters; caller must hold ``self._lock``."""
        scorer = self._shards[stream_id]
        submitted = self._submitted[stream_id]
        scored = self._scored[stream_id]
        dropped = self._dropped[stream_id]
        return {
            "submitted": submitted,
            "scored": scored,
            "dropped": dropped,
            # Arrivals accepted but not yet scored — the stream's queue lag.
            "lag": submitted - scored - dropped,
            "total": scorer.total,
            "window_fill": len(scorer),
            "mode": scorer.mode,
        }

    def stream_stats(self, stream_id):
        """Counters for one stream: submitted/scored/dropped/lag/total.

        The counters are read under one lock acquisition, so they are a
        consistent snapshot — ``submitted == scored + dropped + lag`` holds
        even while producers submit and a drain commits concurrently
        (field-by-field reads could otherwise tear mid-drain).
        """
        with self._lock:
            return self._stream_stats_locked(stream_id)

    def queue_counters(self):
        """``(queue_depth, dropped_total)`` in O(1), read under one lock.

        What a frontend reads after every drain, without the per-stream
        walk of :meth:`stats`."""
        with self._lock:
            return len(self._queue), self._dropped_total

    def stats(self):
        """Router-level stats plus a per-stream breakdown.

        Like :meth:`stream_stats`, the whole report — router totals *and*
        every per-stream block — is assembled under a single lock
        acquisition: totals always equal the sum of their per-stream
        rows, and no counter can tear against a concurrent drain.
        """
        with self._lock:
            self._absorb_program_counters_locked()
            return {
                "streams": len(self._shards),
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "drains": self._drains,
                "submitted": sum(self._submitted.values()),
                "scored": sum(self._scored.values()),
                "dropped": self._dropped_total,
                # Compiled-inference program cache: hits/misses count
                # lookups of the one (member ids, shape) cache, solo tapes
                # and stacked programs alike; invalidations count lookups
                # that found the weights generation moved (a hot-swap or
                # a module built) and rebuilt the program.
                "program_cache": dict(self._prog_counters),
                "per_stream": {
                    stream_id: self._stream_stats_locked(stream_id)
                    for stream_id in self._shards
                },
            }
