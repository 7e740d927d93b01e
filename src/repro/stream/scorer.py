"""StreamScorer: continuous scoring of arriving observations.

Wraps any fitted :class:`repro.baselines.BaseDetector` and scores each new
point over a ring-buffered sliding window, so the per-arrival cost is
bounded by the window size instead of growing with the stream.  Three
scoring paths cover the whole detector zoo:

``score_new``
    Detectors that score unseen data with trained state (RAE, RDAE) are
    served through :class:`repro.core.ScoringSession`, which keeps the
    scaler, the scaled window and its last forward warm between arrivals.
``score``
    Detectors whose ``score`` evaluates the passed series against fitted
    state (LOF, OCSVM, isolation forest, the windowed neural baselines).
``refit``
    Transductive detectors whose ``score`` ignores its argument (RSSA) or
    that carry no reusable state: the paper's ``fit_score`` protocol is
    re-applied to the live window with a fresh clone per arrival.
"""

from __future__ import annotations

import copy

import numpy as np

from ..baselines.base import detector_capabilities
from ..core.scoring import require_finite
from .ring import RingBuffer

__all__ = ["StreamScorer"]


class StreamScorer:
    """Score a stream point-by-point with a fitted detector.

    Parameters
    ----------
    detector: a fitted detector (or, for ``refit`` mode, a configured one —
        the clone is refitted on the window anyway).  Also accepts any
        construction handle :func:`repro.api.as_detector` understands — a
        :class:`repro.api.DetectorSpec`, :class:`repro.api.PipelineSpec`,
        spec-shaped dict, or registry method name — which builds the
        detector here (unfitted; fit it or use ``refit`` mode).
    window: sliding-window capacity; per-arrival work is bounded by it.
    min_points: total arrivals (including :meth:`seed` history) required
        before scoring starts; chunks ingested wholly before that threshold
        score 0.0 (no anomaly evidence yet) and run **no** forward pass.
        The threshold is counted on :attr:`total`, never on the retained
        window size, so both scoring paths agree even when ``min_points``
        exceeds the window.  The chunk that crosses the threshold scores
        all of its retained points — chunked ingestion gives early points
        more context, exactly as documented for :meth:`push_many`.
    mode: ``'auto'`` (default), ``'score_new'``, ``'score'``, or ``'refit'``.
        ``'auto'`` picks ``score_new`` when the detector defines it, the
        refit protocol for known transductive-only detectors, and ``score``
        otherwise.
    programs: optional :class:`repro.core.InferencePrograms` compiled
        score-forward cache, shared across a router's shards.  ``None``
        keeps every forward eager; scores are bit-identical either way.
    """

    def __init__(self, detector, window=256, min_points=2, mode="auto",
                 programs=None):
        from ..api import as_detector

        detector = as_detector(detector)
        self.detector = detector
        self.programs = programs
        self.window = int(window)
        self.min_points = max(int(min_points), 2)
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if mode not in ("auto", "score_new", "score", "refit"):
            raise ValueError("mode must be auto/score_new/score/refit, got %r" % mode)
        if mode == "auto":
            caps = detector_capabilities(detector)
            if "warm_startable" in caps:
                mode = "score_new"
            elif "transductive" in caps:
                # score() would return frozen fit-time scores regardless of
                # the window content; the only correct streaming protocol is
                # refitting a clone on the live window.
                mode = "refit"
            else:
                mode = "score"
        self.mode = mode
        self._session = None
        self._ring = None

    def _ensure_state(self, dims):
        if self._session is not None or self._ring is not None:
            return
        if self.mode == "score_new":
            from ..core.scoring import ScoringSession

            self._session = ScoringSession(
                self.detector, window=self.window, programs=self.programs
            )
        else:
            self._ring = RingBuffer(self.window, dims)

    # ------------------------------------------------------------------ #
    def _window_scores(self):
        """Score every observation of the current window."""
        arr = np.asarray(self._ring.view())
        if self.mode == "refit":
            return copy.deepcopy(self.detector).fit_score(arr)
        return self.detector.score(arr)

    def push(self, point):
        """Ingest one observation, return its outlier score (float)."""
        row = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return float(self.push_many(row)[0])

    def push_many(self, points):
        """Ingest a chunk, return one score per point (micro-batched).

        The whole chunk is scored from a single pass over the updated
        window, which amortises model setup across arrivals; chunk points
        may therefore see slightly more context than with point-by-point
        ``push``.  On the session path the pass is a receptive-field-
        bounded *tail* forward whenever the fitted architecture reports
        one (see :meth:`repro.core.ScoringSession.last_scores`): the
        per-chunk cost is then O(receptive field + chunk), not O(window),
        with scores bit-identical to a full re-forward.

        A chunk larger than the window evicts its own oldest points before
        scoring runs; those evicted points are reported as 0.0 (no
        evidence), the same convention as the warmup phase.  This is the
        intended idiom for seeding a scorer with history — keep live
        chunks at or below the window size to score every arrival.

        A chunk holding any NaN or infinite value is rejected whole
        (``ValueError``) before anything is ingested.
        """
        points = np.asarray(points, dtype=np.float64)
        require_finite(points)
        n, needs_scores = self._ingest_chunk(points)
        if not needs_scores:
            return np.zeros(n)
        if self._session is not None:
            return self._collect_chunk(n, self._session.last_scores(n))
        return self._collect_chunk(n, self._window_scores())

    # -- staged chunk protocol (shared with repro.serve.StreamRouter) ---- #
    #
    # push_many = _ingest_chunk -> score the window tail -> _collect_chunk.
    # The router runs the same three stages, but interleaves many shards
    # between ingest and collect so that session-backed shards can refresh
    # their tail scores through one grouped forward pass
    # (repro.core.batched_session_scores with tail counts) instead of one
    # pass per shard.

    def _ingest_chunk(self, points):
        """Ingest a chunk; return ``(n, needs_scores)``.

        ``needs_scores`` is False for chunks wholly inside the ``min_points``
        warmup — those are context-only and must score 0.0 without paying a
        forward pass (the session path ingests into its ring without
        scoring; the ring path just extends).  Both paths count the
        threshold on total arrivals, so their semantics are identical.
        """
        arr = np.asarray(points, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        self._ensure_state(arr.shape[1])
        n = arr.shape[0]
        if self._session is not None:
            if self._session.total + n < self.min_points:
                self._session.ingest(arr)
                return n, False
            self._session.ingest(arr)
            return n, True
        self._ring.extend(arr)
        return n, self._ring.total >= self.min_points

    def _checkpoint(self, n):
        """An undo point for a coming ``_ingest_chunk`` of ``n`` rows:
        O(min(n, window)), unlike a :meth:`state_dict` snapshot."""
        owner = self._session if self._session is not None else self._ring
        return owner, None if owner is None else owner.checkpoint(n)

    def _rollback(self, mark):
        """Undo every ingest since :meth:`_checkpoint` returned ``mark``:
        afterwards the scorer is indistinguishable from one that never
        saw those rows (a mark taken before any state drops it again)."""
        owner, point = mark
        if owner is None:
            self._session = None
            self._ring = None
        else:
            owner.rewind(point)
        return self

    def _collect_chunk(self, n, window_scores):
        """Map window scores back to the last ``n`` ingested arrivals."""
        out = np.zeros(n)
        tail = min(n, window_scores.shape[0])
        if tail:
            out[n - tail :] = window_scores[window_scores.shape[0] - tail :]
        return out

    def seed(self, history):
        """Ingest history as context without scoring it.

        Unlike :meth:`push_many`, no scoring pass runs — seeding a long
        history costs only the buffer fill.  Non-finite history is
        rejected as in :meth:`push_many`.
        """
        arr = np.asarray(history, dtype=np.float64)
        require_finite(arr)
        if arr.ndim == 1:
            arr = arr[:, None]
        self._ensure_state(arr.shape[1])
        if self._session is not None:
            self._session.seed(arr)
        else:
            self._ring.extend(arr)
        return self

    # ------------------------------------------------------------------ #
    # state round-trip (shard recovery: repro.serve.StreamRouter.save/restore)
    def state_dict(self):
        """The scorer's retained streaming state as plain arrays.

        ``kind`` says which scoring path owns the state (``session`` rows
        are scaled by the detector's training scaler, ``ring`` rows are
        raw arrivals); ``window`` is the retained window oldest-first and
        ``total`` the arrivals ever ingested — everything
        :meth:`load_state_dict` needs to resume the stream bit-exactly
        (the session's memoised forward is derived state, recomputed by
        the first read after a restore).  The detector itself is *not*
        included; persist it with :mod:`repro.core.persistence` (or a
        spec) alongside.
        """
        if self._session is not None:
            return {"kind": "session", "dims": int(self._session.dims),
                    "window": np.asarray(self._session._ring.view()).copy(),
                    "total": int(self._session.total)}
        if self._ring is not None:
            return {"kind": "ring", "dims": int(self._ring.dims),
                    "window": np.asarray(self._ring.view()).copy(),
                    "total": int(self._ring.total)}
        return {"kind": "empty", "dims": 0,
                "window": np.zeros((0, 0)), "total": 0}

    def load_state_dict(self, state):
        """Restore state saved by :meth:`state_dict`; returns ``self``.

        The scorer must have been constructed with the same mode family as
        the saved state (a ``session`` state needs a ``score_new`` scorer,
        anything else a ring path) — a mismatch means the detector or mode
        changed between save and restore, which cannot resume bit-exactly.
        """
        kind = state["kind"]
        if kind == "empty":
            return self
        self._ensure_state(int(state["dims"]))
        expected = "session" if self._session is not None else "ring"
        if kind != expected:
            raise ValueError(
                "saved state is %r but this scorer (mode=%r) keeps %r "
                "state; was the detector or mode changed since the save?"
                % (kind, self.mode, expected)
            )
        if self._session is not None:
            self._session.load_state(state["window"], state["total"])
        else:
            self._ring.load(state["window"], state["total"])
        return self

    def rescore(self):
        """Scores of every observation currently in the window."""
        if self._session is not None:
            return self._session.scores()
        if self._ring is None or len(self._ring) < 2:
            return np.zeros(0 if self._ring is None else len(self._ring))
        return self._window_scores()

    def __len__(self):
        if self._session is not None:
            return len(self._session)
        return 0 if self._ring is None else len(self._ring)

    @property
    def total(self):
        """Observations ever ingested."""
        if self._session is not None:
            return self._session.total
        return 0 if self._ring is None else self._ring.total
