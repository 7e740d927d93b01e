"""Warm scoring state for fitted RAE/RDAE detectors.

``score_new`` is stateless: every call re-validates, re-scales, re-embeds and
runs a full forward pass over whatever it is given.  Serving a stream (or a
fleet of series) wants the opposite — bind the fitted model once, keep the
recent window hot, and only pay for the arrivals:

* :class:`ScoringSession` — per-stream state: a ring buffer of scaled
  observations and one memoised forward (the matrix-view path embeds the
  ring into its lagged matrix when a forward needs it).  For
  architectures with a bounded receptive field (the conv stacks), a push
  re-forwards only the window *tail* that the new arrivals can influence
  — O(receptive field) instead of O(window) — bit-identically to a full
  re-forward.
* :func:`batched_score_new` — score many same-length series through one
  forward pass of the fitted autoencoder (the batch axis of the conv stack).
* :func:`batched_session_scores` — refresh many live sessions' trailing
  scores at once: sessions that share an architecture and a slice shape
  are stacked through one forward pass (the sharded-serving drain path of
  :mod:`repro.serve`); tail-capable sessions contribute bounded slices,
  not whole windows.
* :func:`iter_key_batches` — the same-shape grouping used by every batched
  path (here and in :class:`repro.eval.BatchScoringEngine`).

Tail forwards and their bit-identity rest on two facts established at the
``repro.nn`` layer: every module reports a sound receptive-field cone
(:meth:`repro.nn.Module.receptive_field`), and serving forwards run under
:func:`repro.nn.functional.stable_kernels`, whose conv arithmetic is
independent of the forwarded length (so a slice forward reproduces the
full forward's bits away from the slice's padded left edge).

The compiled inference path removes the remaining per-forward overhead.
:func:`architecture_fingerprint` gives every fitted detector a stable
structural key, so :func:`batched_session_scores` groups slices by
*architecture* instead of detector identity — S same-spec shards, each
with its own weights, share one forward.  :class:`InferencePrograms` is
the one program cache that executes those groups, keyed by member ids
and input shape, always through a grad-free
:class:`repro.nn.tape.ScoreTape`: solo-module groups replay a tape over
the module; mixed-detector groups replay a
:class:`repro.nn.batched.StackedScoreProgram`, a tape recorded over one
module whose conv weights stack the members' along a leading member axis.
Both replay the serving kernels' length-stable arithmetic exactly, so
compiled scores are bit-identical to the eager drain; any group the cache
declines (members that do not stack, ``REPRO_EAGER``, poisoned recording)
falls back to eager forwards partitioned per detector.
"""

from __future__ import annotations

import threading

import numpy as np

from .. import nn
from ..nn import batched as nn_batched
from ..baselines.base import as_series
from ..rpca import apply_prox as _prox
from ..tsops.hankel import deembed_lagged, embed_lagged, hankelize
from .autoencoders import matrix_to_tensor, tensor_to_matrix
from .rae import RAE
from .rdae import RDAE

__all__ = [
    "InferencePrograms",
    "ScoringSession",
    "architecture_fingerprint",
    "batched_score_new",
    "batched_session_scores",
    "drain_group_key",
    "iter_key_batches",
]


def require_finite(values, stream_id=None):
    """Raise ``ValueError`` unless every value of ``values`` is finite.

    One NaN/inf would poison a stream's window — every score NaN until it
    ages out — without any counter noticing, so arrivals are refused up
    front.  ``stream_id`` only labels the message.
    """
    if not np.isfinite(values).all():
        label = "" if stream_id is None else "stream %r: " % (stream_id,)
        raise ValueError("%sarrivals must be finite, got %s"
                         % (label, values[~np.isfinite(values)][0]))


def _check_fitted(detector):
    if not isinstance(detector, (RAE, RDAE)):
        raise TypeError(
            "expected a fitted RAE or RDAE, got %s" % type(detector).__name__
        )
    if not detector.is_fitted():
        raise RuntimeError("fit the detector before streaming/batch scoring")
    if isinstance(detector, RAE):
        return "rae"
    return "rdae_series" if detector._f2 is not None else "rdae_matrix"


def iter_key_batches(keys, batch_size):
    """Group positions ``0..len(keys)-1`` by key, yield batches of indices.

    Every batched scoring path wants the same thing: partition a work list
    into same-key groups (same shape, same detector, ...) that can share one
    forward pass, then chunk each group by ``batch_size``.  Yields lists of
    indices into ``keys``; within a group, input order is preserved.
    """
    batch_size = max(int(batch_size), 1)
    groups = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    for indices in groups.values():
        for lo in range(0, len(indices), batch_size):
            yield indices[lo : lo + batch_size]


def _receptive_field(module):
    """``module.receptive_field()``, memoised per module.

    Composing the cone costs ~0.6 ms of ``Fraction`` arithmetic for the
    paper's conv RAE, paid by every new session.  The memo is keyed by
    the weights generation, so a weight rebound to another shape (e.g. a
    different kernel size) is never answered from a stale cone.
    """
    state = module.__dict__
    generation = nn.layers.weights_generation()
    if state.get("_receptive_generation") != generation:
        state["_receptive_field"] = module.receptive_field()
        state["_receptive_generation"] = generation
    return state["_receptive_field"]


def _forward_scaled_batch(detector, kind, scaled, stable=False):
    """Score an already-scaled ``(M, C, D)`` batch with one forward pass.

    The shared core of :func:`batched_score_new`,
    :func:`batched_session_scores` and the series paths of
    :meth:`ScoringSession._forward`: run the fitted module over the batch
    axis, then prox-threshold the residuals into per-observation scores.
    Only the series kinds batch; the lagged-matrix path is handled by its
    callers.

    ``stable=True`` (every :class:`ScoringSession` forward) runs under
    :func:`repro.nn.functional.stable_kernels`, making each position's
    arithmetic independent of ``C`` and ``M`` — the precondition for a
    tail-slice forward reproducing the full forward's bits.
    """
    tensor = np.ascontiguousarray(scaled.transpose(0, 2, 1))  # (M, D, C)
    module = detector.model_ if kind == "rae" else detector._f2
    lam = detector.lam if kind == "rae" else detector.lam2
    if stable:
        with nn.no_grad(), nn.functional.stable_kernels():
            recon = module(nn.Tensor(tensor)).data
    else:
        with nn.no_grad():
            recon = module(nn.Tensor(tensor)).data
    clean = recon.transpose(0, 2, 1)                 # (M, C, D)
    residual = scaled - clean
    outlier = _prox(residual, lam, detector.prox)
    return (outlier**2).sum(axis=2) + 1e-9 * (residual**2).sum(axis=2)


# --------------------------------------------------------------------- #
# architecture fingerprints — the cross-detector grouping key
# --------------------------------------------------------------------- #

def _module_signature(module):
    """Hashable structural identity of a module tree.

    Type names, non-private scalar hyperparameters (padding, kernel,
    chunk, ...), child modules (attributes and lists, recursively), and
    the ``named_parameters`` name/shape sequence.  Two modules share a
    signature exactly when they run the same forward pipeline over
    identically-shaped weights — the condition for stacking their score
    forwards along a leading member axis.
    """
    parts = []
    for name, value in vars(module).items():
        if name.startswith("_") or name == "training":
            continue
        if isinstance(value, nn.Parameter):
            continue
        if isinstance(value, nn.Module):
            parts.append((name, _module_signature(value)))
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(item, nn.Module) for item in value
        ):
            parts.append(
                (name, tuple(_module_signature(item) for item in value))
            )
        elif isinstance(value, (bool, int, float, str)):
            parts.append((name, value))
    params = tuple(
        (name, tuple(int(d) for d in p.data.shape))
        for name, p in module.named_parameters()
    )
    return (type(module).__name__, tuple(parts), params)


# Structural signature -> its interned (kind, n) key.  Interning makes
# every grouping dict a drain builds hash a 2-tuple, not the nested
# signature (~1.7 KB for the paper's conv RAE).
_INTERNED = {}
_INTERN_LOCK = threading.Lock()


def _intern(kind, signature):
    with _INTERN_LOCK:
        key = _INTERNED.get((kind, signature))
        if key is None:
            key = _INTERNED[(kind, signature)] = (kind, len(_INTERNED))
        return key


def architecture_fingerprint(detector, kind=None):
    """Stable grouping key for a fitted detector's serving forward.

    Same-spec detectors with *different weights* share a fingerprint, so
    drains can stack their slices through one batched forward; detectors
    of different architecture (or scoring kind) never collide.  The
    lagged-matrix RDAE path keeps identity keys — its embedding geometry
    is per-session and never batches across detectors.

    Fingerprints are small interned ``(kind, n)`` keys: each distinct
    structural signature is numbered once per process, so equal
    signatures get equal keys and hashing one is O(1).  The fingerprint
    is memoised per serving-module object; it reflects the structure at
    first use.  That is only a *grouping* hint — a group
    whose members turn out not to stack (e.g. a weight hot-swapped to a
    mismatched shape after the memo) degrades to per-detector eager
    forwards or per-shard fault isolation, never to wrong scores.
    """
    if kind is None:
        kind = _check_fitted(detector)
    if kind == "rdae_matrix":
        return ("rdae_matrix", id(detector))
    module = detector.model_ if kind == "rae" else detector._f2
    cached = detector.__dict__.get("_arch_fingerprint")
    if cached is not None and cached[0] is module:
        return cached[1]
    fingerprint = _intern(kind, _module_signature(module))
    detector.__dict__["_arch_fingerprint"] = (module, fingerprint)
    return fingerprint


def drain_group_key(detector):
    """The shard-grouping key :class:`repro.serve.StreamRouter` drains by.

    Fitted RAE/RDAE detectors group by :func:`architecture_fingerprint`
    (same-spec shards share one batched forward even with per-stream
    weights); anything else — unfitted detectors, baseline methods —
    keeps the old identity key and scores in its own group.
    """
    try:
        kind = _check_fitted(detector)
    except (TypeError, RuntimeError):
        return ("id", id(detector))
    return architecture_fingerprint(detector, kind)


# --------------------------------------------------------------------- #
# the compiled inference path
# --------------------------------------------------------------------- #

class InferencePrograms:
    """Per-router cache of compiled score forwards.

    One instance is shared by every shard of a router and holds every
    compiled score forward the router replays, in one dict keyed by
    ``(member ids, input shape)``.  A group whose rows all belong to one
    module gets a grad-free :class:`repro.nn.tape.ScoreTape` (member ids
    ``(id(module),)``); a cross-detector group gets a
    :class:`repro.nn.batched.StackedScoreProgram` (one id per row).  Each
    entry remembers the weights generation it was built under; when the
    generation moves (a parameter's ``.data`` rebound or a module
    constructed, anywhere), the program is rebuilt from the current
    weights.  A ``None`` verdict (module not tape-safe, members that do
    not stack) is cached the same way, and a program whose recording was
    poisoned is declined.  The dict holds at most :attr:`_MAX_PROGRAMS`
    entries, evicted oldest first.

    ``hits`` / ``misses`` / ``invalidations`` count lookups for
    ``StreamRouter.stats()``: an invalidation means exactly that the
    weights generation moved since the program was built.

    Thread-safe: the cache map and counters sit behind one lock
    (``StreamRouter.stats()`` takes the counters from frontend threads
    while a drain replays), and every program serialises its own replays.
    """

    #: Most programs one router keeps.  Each holds its recorded buffers,
    #: so the bound caps a router's compiled-inference memory.
    _MAX_PROGRAMS = 64

    #: Lock discipline, machine-checked by ``repro lint`` (lock-guarded).
    _GUARDED_BY = {
        "_programs": "_lock",
        "_hits": "_lock",
        "_misses": "_lock",
        "_invalidations": "_lock",
    }

    def __init__(self):
        self._lock = threading.Lock()
        self._programs = {}  # (member ids, shape) -> (generation, program|None)
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    # -- counters ------------------------------------------------------- #
    def counters(self):
        """Snapshot of ``{"hits", "misses", "invalidations"}``."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "invalidations": self._invalidations}

    def take_counters(self):
        """Return the counters and reset them to zero (delta accounting:
        the router absorbs per-drain deltas into its persistent totals)."""
        with self._lock:
            out = {"hits": self._hits, "misses": self._misses,
                   "invalidations": self._invalidations}
            self._hits = self._misses = self._invalidations = 0
            return out

    # -- program lookup ------------------------------------------------- #
    def _program(self, modules, shape):
        """The cached program for these row modules and input shape, built
        on a miss or a generation change; None when the compiled path
        declines (not tape-safe, members that do not stack, poisoned)."""
        first = modules[0]
        if all(module is first for module in modules):
            modules = (first,)
        ids, generation = nn_batched.stacked_member_token(modules)
        key = (ids, shape)
        with self._lock:
            entry = self._programs.get(key)
            if entry is not None and entry[0] == generation:
                program = entry[1]
                if program is None or program.failed:
                    return None
                self._hits += 1
                return program
            if entry is None:
                self._misses += 1
            else:
                self._invalidations += 1
                del self._programs[key]
        if len(modules) == 1:
            program = (nn.tape.ScoreTape(first, shape)
                       if nn.tape.module_tape_safe(first) else None)
        else:
            try:
                program = nn_batched.StackedScoreProgram(modules, shape)
            except ValueError:  # the members do not stack
                program = None
        with self._lock:
            if len(self._programs) >= self._MAX_PROGRAMS:
                self._programs.pop(next(iter(self._programs)))
            self._programs[key] = (generation, program)
        return program

    def score_batch(self, detectors, kind, scaled):
        """Compiled scores for a stacked ``(S, C, D)`` batch, or None.

        Row ``i`` of ``scaled`` belongs to ``detectors[i]`` (objects may
        repeat).  Returns the ``(S, C)`` per-observation scores —
        bit-identical to the eager stable forward of each row through its
        own detector — or None when the compiled path declines (tape
        compilation disabled, lagged-matrix kind, unsupported
        architecture, poisoned recording) and the caller must run eager.
        """
        if kind not in ("rae", "rdae_series") or not nn.tape.tape_enabled():
            return None
        modules = [
            det.model_ if kind == "rae" else det._f2 for det in detectors
        ]
        tensor = np.ascontiguousarray(scaled.transpose(0, 2, 1))  # (S, D, C)
        program = self._program(modules, tensor.shape)
        if program is None:
            return None
        recon = program.run(tensor)
        clean = recon.transpose(0, 2, 1)                 # (S, C, D)
        residual = scaled - clean
        pairs = [
            (det.lam if kind == "rae" else det.lam2, det.prox)
            for det in detectors
        ]
        if all(pair == pairs[0] for pair in pairs):
            outlier = _prox(residual, pairs[0][0], pairs[0][1])
        else:
            # Per-row thresholding when hyperparameters differ across the
            # stacked members — _prox is elementwise, so per-row equals
            # the batched call bit for bit.
            outlier = np.empty_like(residual)
            for row, (lam, prox) in enumerate(pairs):
                outlier[row] = _prox(residual[row], lam, prox)
        return (outlier**2).sum(axis=2) + 1e-9 * (residual**2).sum(axis=2)


def _group_scaled_batch(detectors, kind, batch, programs):
    """Score a same-shape ``(S, C, D)`` batch; row i owns detectors[i].

    Tries the compiled path first; eager fallback partitions rows per
    detector — one detector's module must never forward another's rows
    (their weights differ even when the architecture matches).  Stable
    kernels make each row's arithmetic independent of its batchmates, so
    the partitioned eager result equals the stacked compiled one bit for
    bit.
    """
    if programs is not None:
        scores = programs.score_batch(detectors, kind, batch)
        if scores is not None:
            return scores
    first = detectors[0]
    if all(det is first for det in detectors):
        return _forward_scaled_batch(first, kind, batch, stable=True)
    scores = np.empty(batch.shape[:2])
    partitions = {}
    for row, det in enumerate(detectors):
        partitions.setdefault(id(det), (det, []))[1].append(row)
    for det, rows in partitions.values():
        index = np.asarray(rows)
        scores[index] = _forward_scaled_batch(
            det, kind, batch[index], stable=True
        )
    return scores


class ScoringSession:
    """Incremental ``score_new`` over a sliding window of a live stream.

    Parameters
    ----------
    detector: a *fitted* :class:`RAE` or :class:`RDAE`.
    window: observations retained for scoring context.  Each arrival is
        scored from a forward pass over at most this many points, so the
        per-arrival cost is bounded regardless of stream length.
    tail_forward: when True (default) and the detector's serving module
        reports a bounded receptive field, a read of the last ``k`` scores
        forwards only the last ``tail_context + k`` positions of the window
        (rounded out to the pooling grid) — push cost O(receptive field),
        not O(window), with scores bit-identical to a full re-forward.
        Architectures without a bound (FC ablations, the lagged-matrix
        path) fall back to full forwards automatically; ``False`` makes
        every read a full forward (the reference the tail path is tested
        against).
    programs: optional :class:`InferencePrograms` cache.  When given,
        slice forwards replay compiled grad-free score tapes instead of
        rebuilding the autograd graph eagerly; scores are bit-identical
        either way (both run under stable kernels), so a session may gain
        or lose the cache across save/restore without a score changing.

    The session applies the detector's *training* scaler (the stream is
    assumed to monitor the trained process) and keeps scaled observations
    in a :class:`RingBuffer`, its only state besides the memo; the
    lagged-matrix path of f2-less RDAE embeds the ring when it forwards.

    For the series paths (RAE, RDAE-with-f2) results agree with
    ``score_new`` on the window content to floating-point tolerance: the
    session's forwards run under :func:`repro.nn.functional.stable_kernels`
    (whose conv reduction order differs from the stateless path's by
    ~1 ulp) so that *within* the session, tail and full forwards are
    mutually bit-identical.  The matrix path fixes its lag
    from the window *capacity*, so it matches ``score_new`` once the ring
    holds a full window; while it is still filling, ``score_new``'s
    content-length-based lag clamp can pick a smaller lag and the scores
    differ slightly.

    The session memoises one forward: the exact scores of the last
    ``len(memo)`` window positions as of the arrival count it ran at.
    Reads answer from it until the next arrival, or until a read wants
    more positions than it holds.  A tail slice starts on a multiple of
    the receptive field's *period* (the pooling-grid quantum: 2 for the
    pooled conv RAE, 1 for RDAE's ``f2``), so its pooling grid is the full
    forward's, and its first lookback-margin positions, which its padded
    left edge pollutes, are discarded.
    """

    def __init__(self, detector, window=256, tail_forward=True,
                 programs=None):
        self.kind = _check_fitted(detector)
        self.detector = detector
        self.programs = programs
        self.window = int(window)
        if self.window < 2:
            raise ValueError("window must be >= 2")
        self.dims = detector._scale_mean.shape[1]
        # Imported here: repro.stream imports this module at import time.
        from ..stream.ring import RingBuffer

        self._ring = RingBuffer(self.window, self.dims)
        if self.kind == "rdae_matrix":
            self._lag = int(np.clip(
                detector.window, 2, max(2, self.window // 2 - 1)
            ))
        # Receptive-field metadata for the tail-forward path (None when the
        # architecture is unbounded or the caller disabled it).
        self._field = None
        if tail_forward and self.kind in ("rae", "rdae_series"):
            module = detector.model_ if self.kind == "rae" else detector._f2
            field = _receptive_field(module)
            if field.bounded:
                self._field = field
                self._period = field.period_int
                # The margin tail_context() is derived from (see
                # ReceptiveField.margins), so the tested public bound and
                # the positions a tail slice discards cannot drift apart.
                self._lb = field.margins()[0]
        # The one memo: exact scores of the last len(_memo) window
        # positions as of _memo_total arrivals.
        self._memo_total = -1
        self._memo = np.zeros(0)

    def __len__(self):
        return len(self._ring)

    @property
    def total(self):
        """Observations ever ingested."""
        return self._ring.total

    @property
    def tail_supported(self):
        """Whether pushes use receptive-field-bounded tail forwards."""
        return self._field is not None

    def _ingest(self, points):
        raw = np.asarray(points, dtype=np.float64)
        if raw.ndim == 1:
            raw = raw[:, None]
        if raw.ndim != 2 or raw.shape[1] != self.dims:
            raise ValueError("points must be (n, %d), got %s"
                             % (self.dims, raw.shape))
        scaled = self.detector._apply_scaler(raw)
        self._ring.extend(scaled)
        return raw.shape[0]

    def seed(self, history):
        """Ingest history without scoring it (fast session warm-up).

        Bulk-loads the ring; no forward pass runs until the next
        ``extend`` / ``scores`` call.  Use this to give the first live
        arrivals context.  Non-finite history is rejected (``ValueError``)
        before the ring changes.
        """
        history = np.asarray(history, dtype=np.float64)
        require_finite(history)
        self._ingest(history)
        return self

    def load_state(self, window, total):
        """Restore the exact retained state of a live session.

        ``window`` holds the *scaled* rows a live session's ring retained
        (its ``_ring.view()`` at save time) and ``total`` its arrival
        count.  The ring is reloaded slot-exact, so the next read is
        bit-identical to the session that never stopped (the memo is
        derived state; the first read recomputes it).  Used by
        :meth:`repro.stream.StreamScorer.load_state_dict` (shard recovery).
        """
        self._ring.load(window, total)
        self._memo_total = -1
        self._memo = np.zeros(0)
        return self

    def checkpoint(self, n):
        """An undo point for ingesting ``n`` more rows (see
        :meth:`rewind`): the ring's undo point, O(min(n, window))."""
        return self._ring.checkpoint(n)

    def rewind(self, mark):
        """Return to the state :meth:`checkpoint` saw, bit for bit.

        Rewinds the ring.  A memo of arrivals past the undo point is
        dropped; an older one stays valid, because the rewound rows are
        bit-identical.
        """
        self._ring.rewind(mark)
        if self._memo_total > self._ring.total:
            self._memo_total = -1
            self._memo = np.zeros(0)
        return self

    def ingest(self, points):
        """Ingest a chunk *without* scoring it (the batched-drain hook).

        A later :meth:`last_scores` call — possibly refreshed for many
        sessions at once by :func:`batched_session_scores` — sees the same
        state as per-chunk scoring.  Returns the number of ingested points.
        Unlike :meth:`extend`, it does not check for NaN/inf: the router's
        drain path calls it with rows that ``submit`` already validated.
        """
        return self._ingest(points)

    def _forward(self, arr):
        """Scores of the scaled window ``arr`` via the detector's warm path."""
        det = self.detector
        if self.kind != "rdae_matrix":
            return _forward_scaled_batch(det, self.kind, arr[None], stable=True)[0]
        residual = np.zeros_like(arr)
        lam = det.lam2
        with nn.no_grad():
            # The inner AE's max-pool needs at least 2 lagged columns
            # (K=1 would pool to width 0); until then the stream is
            # still warming up and keeps zero evidence.
            if arr.shape[0] >= self._lag + 1:
                lagged = embed_lagged(arr, self._lag)
                recon = det._inner(nn.Tensor(matrix_to_tensor(lagged))).data
                clean = deembed_lagged(hankelize(tensor_to_matrix(recon)))
                # The embedding needs B observations before its first
                # column; observations before that keep zero evidence.
                covered = clean.shape[0]
                residual[arr.shape[0] - covered :] = arr[arr.shape[0] - covered :] - clean
        outlier = _prox(residual, lam, det.prox)
        return (outlier**2).sum(axis=1) + 1e-9 * (residual**2).sum(axis=1)

    # ------------------------------------------------------------------ #
    # refresh planning — shared by the solo path and the batched drain
    #
    # A stale read plans ("zeros", None) below the 2-point scoring minimum,
    # ("solo", None) for the lagged-matrix path (its own full forward), or
    # ("slice", start): forward ring rows [start, size).  _apply installs
    # the plan's scores as the memo.  batched_session_scores stacks
    # same-shape slices from many sessions through one grouped forward.

    def _stale(self, count):
        """Whether the memo cannot answer the last ``count`` scores."""
        return (self._memo_total != self._ring.total
                or self._memo.shape[0] < min(count, len(self._ring)))

    def _plan(self, want):
        """How to bring the memo up to (at least) the last ``want`` scores."""
        size = len(self._ring)
        if size < 2:
            return ("zeros", None)
        if self.kind == "rdae_matrix":
            return ("solo", None)
        if self._field is None:
            return ("slice", 0)
        # The latest period multiple whose slice still leaves `want`
        # positions past its lookback margin; a slice starting within one
        # period of the window edge saves nothing over the full forward.
        start = (size - int(want) - self._lb) // self._period * self._period
        return ("slice", start if start >= self._period else 0)

    def _apply(self, plan, scores):
        """Install a plan's scores as the memo (a tail slice without its
        lookback margin, whose positions its padded left edge pollutes)."""
        self._memo = scores[self._lb :] if plan[1] else scores
        self._memo_total = self._ring.total

    def _slice_forward(self, lo, hi):
        """Exact scores of window rows ``[lo, hi)`` via one stable forward."""
        view = np.asarray(self._ring.view())
        if self.programs is not None:
            scores = self.programs.score_batch(
                [self.detector], self.kind, view[lo:hi][None]
            )
            if scores is not None:
                return scores[0]
        return _forward_scaled_batch(
            self.detector, self.kind, view[lo:hi][None], stable=True
        )[0]

    def _run_plan(self, plan):
        """Execute a plan solo (the batched drain groups slice forwards)."""
        kind, start = plan
        if kind == "zeros":
            scores = np.zeros(len(self._ring))
        elif kind == "solo":
            scores = self._forward(np.asarray(self._ring.view()))
        else:
            scores = self._slice_forward(start, len(self._ring))
        self._apply(plan, scores)

    # ------------------------------------------------------------------ #
    def scores(self):
        """Scores of every observation in the current window.

        One full stable forward, memoised until the next arrival — always
        equal to a from-scratch full re-forward of the retained window,
        bit for bit.
        """
        return self.last_scores(len(self._ring))

    def last_scores(self, count):
        """Exact scores of the last ``min(count, len(self))`` positions.

        Bit-identical to ``scores()[-count:]`` but never forwards more
        than O(receptive field + count) positions on the tail path — this
        is what :meth:`extend`, :meth:`push` and the serve drains read.
        Returns the memo itself when it holds exactly that many scores.
        """
        count = min(int(count), len(self._ring))
        if count <= 0:
            return np.zeros(0)
        if self._stale(count):
            self._run_plan(self._plan(count))
        memo = self._memo
        return memo if memo.shape[0] == count else memo[memo.shape[0] - count :]

    def extend(self, points):
        """Ingest a chunk and return one score per ingested point.

        The chunk is scored with a single tail (or, when the architecture
        is unbounded, full) forward pass over the updated window
        (micro-batching); with chunks of size one this is exactly
        per-arrival scoring.  Chunk points that overflow the window are
        evicted before scoring and reported as 0.0 (the warmup convention)
        — the seeding idiom; keep live chunks within the window size.
        A chunk holding any NaN or infinite value is rejected whole
        (``ValueError``) before anything is ingested.
        """
        points = np.asarray(points, dtype=np.float64)
        require_finite(points)
        n = self._ingest(points)
        tail = self.last_scores(n)
        out = np.zeros(n)
        if tail.shape[0]:
            out[n - tail.shape[0] :] = tail
        return out

    def push(self, point):
        """Ingest one observation and return its score."""
        return float(self.extend(np.asarray(point, dtype=np.float64).reshape(1, -1))[0])


def batched_score_new(detector, series_batch):
    """Score many same-length series with one forward pass.

    Parameters
    ----------
    detector: a fitted :class:`RAE` or :class:`RDAE`.
    series_batch: array ``(M, C, D)`` or ``(M, C)``, or a list of
        equal-length series.

    Returns an ``(M, C)`` array of per-observation scores identical to
    calling ``score_new`` on each series, but amortising the autoencoder
    forward (and all the NumPy dispatch around it) across the batch.  The
    f2-less RDAE matrix path does not batch and falls back to a loop.
    """
    kind = _check_fitted(detector)
    if isinstance(series_batch, np.ndarray) and series_batch.ndim == 3:
        batch = np.asarray(series_batch, dtype=np.float64)
    else:
        batch = np.stack([as_series(s) for s in series_batch])
    if kind == "rdae_matrix":
        return np.stack([detector.score_new(series) for series in batch])
    scaled = detector._apply_scaler(batch)           # scaler broadcasts (1, D)
    return _forward_scaled_batch(detector, kind, scaled)


def batched_session_scores(sessions, tail, batch_size=32, programs=None):
    """Refresh many sessions' trailing scores with as few forwards as possible.

    The sharded-serving drain path: after a burst of arrivals has been
    ingested into many :class:`ScoringSession` shards (via :meth:`ingest`),
    each session whose memo is stale contributes the one ring slice its
    refresh plan needs — a bounded tail for tail-capable sessions, the
    whole window otherwise — and slices that share an **architecture
    fingerprint** and length are stacked through **one** forward pass per
    group instead of one per shard.  Distinct same-spec detectors (e.g. 64
    streams each holding its own fitted copy of one architecture) therefore
    share a group; with a ``programs`` cache their weights stack along a
    leading member axis and the whole group replays one compiled program.
    Results are installed into each session's memo.  Sessions on the
    lagged-matrix path (whose embedding geometry is per-session) and
    still-warming sessions fall back to their solo path.

    Parameters
    ----------
    tail: per-session trailing-score counts (one per session, the drain's
        chunk sizes); the return value is each session's
        ``last_scores(n)``.
    programs: optional :class:`InferencePrograms` compiled-path cache.
        ``None`` keeps every group on the eager stable forward; scores are
        bit-identical either way.

    Returns the per-session arrays in input order.
    """
    sessions = list(sessions)
    wants = [int(n) for n in tail]
    if len(wants) != len(sessions):
        raise ValueError("tail must name one count per session")
    jobs = []  # (session, slice plan)
    for session, want in zip(sessions, wants):
        if not session._stale(want):
            continue
        plan = session._plan(want)
        if plan[0] == "slice":
            jobs.append((session, plan))
        else:
            session._run_plan(plan)  # cheap, or per-session lagged geometry
    # Group by architecture fingerprint, not object identity: distinct
    # detectors with the same spec stack into one forward (the fingerprint
    # embeds the scoring kind).
    keys = [(architecture_fingerprint(session.detector, session.kind),
             len(session) - plan[1]) for session, plan in jobs]
    for indices in iter_key_batches(keys, batch_size):
        group = [jobs[g] for g in indices]
        batch = np.stack([np.asarray(session._ring.view())[plan[1]:]
                          for session, plan in group])
        scores = _group_scaled_batch(
            [session.detector for session, __ in group], group[0][0].kind,
            batch, programs,
        )
        for row, (session, plan) in enumerate(group):
            session._apply(plan, scores[row])
    return [session.last_scores(want)
            for session, want in zip(sessions, wants)]
