"""Tape-compiled training fast path: record once, replay without rebuilding.

Eager training rebuilds an identical autograd graph every epoch: fresh
Python closures per op, a topo-sort DFS per backward, new output arrays and
``grad + grad`` copies per accumulation.  For the full-batch reconstruction
loops of Algorithms 1/2 the graph is *structurally constant* across epochs —
only the numbers flowing through it change — so the first step through a
``(model, input shape, target shape)`` combination can record a flat op tape
that later epochs replay:

* the op sequence is captured as ``(tensor, forward)`` pairs in creation
  order, where ``forward(out=None)`` is the *same* closure eager execution
  used (see :mod:`repro.nn.tensor`) — replay therefore runs bit-identical
  arithmetic, in the same op order, with the same reduction orders;
* output buffers are reused: compute ops write through ``out=`` into the
  arrays allocated at record time, view ops rebind views of those stable
  buffers;
* the backward topological order is computed once and cached, and every
  node keeps a persistent gradient buffer that replays accumulate into
  (``np.copyto``/``+=`` instead of ``copy()``/``+``).

Tape v2 extends the recorded stream beyond pure ops: stochastic primitives
(dropout masks, reparameterisation noise) draw into closure-persistent
buffers *inside* their recorded closures, so replays redraw from the
module's own generator in eager draw order instead of replaying stale
constants; softmax recomputes its max shift per replay; and recordings may
contain whole optimisation sub-steps — ``zero_grad``/``step``/inner
``backward`` calls (the discriminator update of an adversarial loss) are
captured as call/backward events interleaved with the ops and replayed at
their recorded positions.  That unlocks compiled fits for the
recurrent/attention/VAE/GAN baselines that PR 5 had to decline.

The tape still refuses (``failed``) whenever an op bakes run-time data into
the recorded graph (see ``_poison_tape``), and :func:`training_tape`
declines to tape at all under ``no_grad``, under
:func:`repro.nn.functional.stable_kernels`, or for modules that are not
structurally replayable (:func:`module_tape_safe`).  Everything declined
falls back to eager execution, which remains the reference semantics.

Inference tapes (the grad-free mode).  Serving forwards run under
``no_grad`` + ``stable_kernels`` — exactly the combination
:func:`training_tape` declines — yet they are even more replayable than
training steps: no backward, no optimizer events, no stochastic draws.
:class:`ScoreTape` records that score forward once per ``(module, input
shape)`` and replays just the op closures with persistent output buffers;
because recording runs *inside* ``no_grad()``/``stable_kernels()``, the
closures bake in the length-stable serving arithmetic and replay it
bit-identically.  It is the one compiled inference mechanism: a solo
module's forward is a :class:`ScoreTape` over the module, and a
cross-detector group's is a :class:`repro.nn.batched.StackedScoreProgram`,
which records one over a member-stacked module.  Neither is cached here:
:class:`repro.core.InferencePrograms` keeps both in one per-router cache
keyed by member ids and input shape, and rebuilds a program when
:func:`weights_token` says the weights generation moved (a parameter's
``.data`` rebound, or a module constructed).  The compiled serving path
honours the same ``REPRO_EAGER`` opt-out as the training tape.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from . import layers
from .attention import (
    MultiHeadAttention,
    PositionalEncoding,
    TransformerEncoderLayer,
)
from .functional import stable_kernels, stable_kernels_active
from .losses import mse_loss
from .recurrent import LSTM, LSTMCell
from .tensor import Tensor, _push_tape, _topo_order, is_grad_enabled, no_grad

__all__ = [
    "TrainStepTape",
    "training_tape",
    "release_tapes",
    "module_tape_safe",
    "tape_enabled",
    "set_tape_enabled",
    "ScoreTape",
    "weights_token",
]

# Process-wide opt-out: REPRO_EAGER=1 (or set_tape_enabled(False) / the CLI
# --eager flag) forces every fit through the eager reference path.
_ENABLED = [os.environ.get("REPRO_EAGER", "") not in ("1", "true", "yes")]

#: Maximum recorded tapes kept per model (distinct input/target shapes).
_MAX_TAPES_PER_MODEL = 4

# Modules whose forward is known to lower entirely onto replayable
# primitives.  Matched by exact type: a subclass may override forward with
# arbitrary Python, so it must opt in via its own ``tape_safe`` attribute.
_SAFE_LEAF_TYPES = frozenset((
    layers.Linear,
    layers.Conv1d,
    layers.Conv2d,
    layers.MaxPool1d,
    layers.MaxPool2d,
    layers.Upsample1d,
    layers.Upsample2d,
    layers.ReLU,
    layers.Tanh,
    layers.Sigmoid,
    layers.LeakyReLU,
    layers.Identity,
    layers.LayerNorm,
    # Dropout draws its mask through the tape's buffer protocol (see
    # functional.dropout), so active dropout replays faithfully now.
    layers.Dropout,
    # The recurrent/attention stacks lower onto pure primitives: LSTM
    # unrolls with fresh zero-state constants per shape, attention's
    # softmax is a recorded primitive, and positional encodings add a
    # construction-time constant table.
    LSTM,
    LSTMCell,
    MultiHeadAttention,
    PositionalEncoding,
    TransformerEncoderLayer,
))


def _child_modules(module):
    for value in vars(module).values():
        if isinstance(value, layers.Module):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, layers.Module):
                    yield item


def module_tape_safe(module):
    """Whether ``module``'s forward replays faithfully from a recorded tape.

    True for the structured primitives of :mod:`repro.nn.layers` (their
    forwards are pure traced ops whose only data-independent branching is on
    shapes, which key the tape cache), for the recurrent/attention stacks,
    for :class:`Sequential` chains of safe children, and for composite
    modules that declare ``tape_safe = True`` *and* contain only safe
    children.  Active dropout is safe too: its mask is drawn through the
    tape's persistent-buffer protocol, so replays redraw from the module's
    generator exactly like eager epochs.  Everything else (unknown user
    modules) answers False and trains eagerly.
    """
    if type(module) is layers.Sequential:
        return all(module_tape_safe(child) for child in module)
    if type(module) in _SAFE_LEAF_TYPES:
        return True
    if getattr(module, "tape_safe", False):
        return all(module_tape_safe(child) for child in _child_modules(module))
    return False


def tape_enabled():
    """Whether tape compilation is enabled process-wide."""
    return _ENABLED[0]


def set_tape_enabled(flag):
    """Toggle tape compilation (True by default; ``REPRO_EAGER=1`` disables).

    Returns the previous setting so callers can restore it.
    """
    previous = _ENABLED[0]
    _ENABLED[0] = bool(flag)
    return previous


class _BackwardEvent:
    """A ``Tensor.backward`` call captured inside a recording.

    The inner optimisation step of an adversarial loss (BeatGAN's
    discriminator update) runs a full backward mid-forward.  Replay seeds
    the recorded root with the recorded seed gradient and re-runs the
    cached reversed topo — after clearing the *non-leaf* gradients of the
    sub-graph.  Leaves (parameters) keep accumulating across events: their
    lifecycle is governed by the recorded ``zero_grad`` calls, exactly as
    in the eager loop.
    """

    __slots__ = ("root", "seed", "reversed_topo", "resettable")

    def __init__(self, root, seed, topo):
        self.root = root
        self.seed = np.array(seed, dtype=np.float64)
        self.reversed_topo = list(reversed(topo))
        # _make only installs _backward on nodes that require grad and have
        # parents; leaves keep None, which is the non-leaf criterion.
        self.resettable = [n for n in topo if n._backward is not None]

    def replay(self):
        for node in self.resettable:
            node.grad = None
        self.root._accumulate(self.seed)
        for node in self.reversed_topo:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class TrainStepTape:
    """One recorded forward+loss+backward, replayable with fresh data.

    The first :meth:`step` call *is* a normal eager training step — it runs
    the model's forward and the loss under a recording context and then the
    standard backward, so recording never changes results.  Later
    :meth:`step` calls refresh the input/target buffers and replay the
    captured entry stream: op closures, side-effect calls (inner
    ``zero_grad``/``step``/clip) and backward events, in recorded order.
    The caller owns the *outer* ``zero_grad``/clip/optimizer.step, exactly
    as in the eager loop.

    ``loss_fn``, when given, replaces the default ``model(x)`` +
    ``mse_loss(prediction, target)`` program: it receives the tape's input
    Tensor and returns either the loss Tensor or a ``(loss, prediction)``
    pair.
    """

    def __init__(self, model, loss_fn=None):
        self.model = model
        self.loss_fn = loss_fn
        self.recorded = False
        self.failed = None  # reason string once poisoned
        self.replays = 0
        self.x = None
        self.target = None
        self._nodes = []      # op outputs in record order (forward-only replay)
        self._forwards = []
        self._entries = []    # full stream: ("op",...)/("call",...)/("bwd",...)
        self._topo = None
        self._resettable = None
        self._reversed_topo = None
        self._loss = None
        self._prediction = None
        self._seed_grad = None

    # ------------------------------------------------------------------ #
    # recorder callbacks (invoked from repro.nn.tensor)
    # ------------------------------------------------------------------ #
    def _add(self, tensor, forward):
        self._nodes.append(tensor)
        self._forwards.append(forward)
        self._entries.append(("op", tensor, forward))

    def _add_call(self, fn):
        self._entries.append(("call", fn, None))

    def _add_backward(self, root, seed, topo):
        self._entries.append(("bwd", _BackwardEvent(root, seed, topo), None))

    def _poison(self, reason):
        self.failed = reason

    # ------------------------------------------------------------------ #
    def step(self, inputs, target):
        """Run one training forward+backward (recording on the first call).

        Returns the prediction array (the tape's reused output buffer — copy
        before storing it across steps).
        """
        if not self.recorded:
            return self._record_step(inputs, target)
        return self._replay_step(inputs, target)

    def _record_step(self, inputs, target):
        self.x = Tensor(np.array(inputs, dtype=np.float64))
        if self.loss_fn is not None:
            self.target = None
        elif target is inputs:
            self.target = self.x.data
        else:
            self.target = np.array(target, dtype=np.float64)
        previous = _push_tape(self)
        try:
            if self.loss_fn is not None:
                result = self.loss_fn(self.x)
                if isinstance(result, tuple):
                    loss, prediction = result
                else:
                    loss, prediction = result, None
            else:
                prediction = self.model(self.x)
                loss = mse_loss(prediction, self.target)
        finally:
            _push_tape(previous)
        self._prediction, self._loss = prediction, loss
        # The recording step is epoch one: run the eager backward, but
        # through the shared topo helper so the order we cache is the order
        # we just executed.  (This outer backward runs after the tape is
        # popped, so it is not itself captured as a backward event.)
        topo = _topo_order(loss)
        self._seed_grad = np.ones_like(loss.data)
        loss._accumulate(self._seed_grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        self._topo = topo
        self._reversed_topo = list(reversed(topo))
        self._resettable = [n for n in topo if n._backward is not None]
        # Hand each node its final gradient array as the persistent
        # accumulation buffer for replays.  Nodes whose gradient was adopted
        # from a backward closure (``_accumulate_owned``) are skipped: the
        # array belongs to the closure, not the node.  Event sub-graphs
        # (the inner backward of an adversarial loss) get buffers too —
        # shared leaves are visited once thanks to the buf-is-None guard.
        self._install_grad_buffers(topo)
        for kind, payload, __ in self._entries:
            if kind == "bwd":
                self._install_grad_buffers(payload.reversed_topo)
        self.recorded = True
        return None if prediction is None else prediction.data

    def _install_grad_buffers(self, nodes):
        for node in nodes:
            if (node.grad is not None and node._grad_buf is None
                    and not node._grad_owned):
                node._grad_buf = node.grad

    def _replay_step(self, inputs, target):
        self._refresh_inputs(inputs, target)
        for kind, payload, forward in self._entries:
            if kind == "op":
                payload.data = forward(payload.data)
            elif kind == "call":
                payload()
            else:
                payload.replay()
        # Reset only non-leaf gradients: parameter grads are governed by
        # the caller's zero_grad (outer params) or by recorded zero_grad
        # calls (an inner optimiser's params, which must keep their
        # event-accumulated gradients for the outer backward to add to,
        # exactly as eager execution would).
        for node in self._resettable:
            node.grad = None
        self._loss._accumulate(self._seed_grad)
        for node in self._reversed_topo:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        self.replays += 1
        return None if self._prediction is None else self._prediction.data

    def _refresh_inputs(self, inputs, target):
        xbuf = self.x.data
        if inputs is not xbuf:
            np.copyto(xbuf, np.asarray(inputs, dtype=np.float64))
        if (self.target is not None and self.target is not xbuf
                and target is not None and target is not inputs):
            np.copyto(self.target, np.asarray(target, dtype=np.float64))

    def _replay_forward(self, inputs, target):
        self._refresh_inputs(inputs, target)
        nodes = self._nodes
        forwards = self._forwards
        for i in range(len(nodes)):
            node = nodes[i]
            node.data = forwards[i](node.data)

    def forward(self, inputs, target=None):
        """Replay only the forward pass (the post-training evaluation
        forward of ``train_reconstruction``) and return the prediction
        buffer.  Ops only: recorded calls and backward events are skipped,
        so no parameter is touched."""
        self._replay_forward(inputs, target)
        return self._prediction.data

    @property
    def loss_value(self):
        """Loss of the most recent step (recorded or replayed)."""
        return float(self._loss.data)

    def __repr__(self):
        state = "failed: %s" % self.failed if self.failed else (
            "recorded, %d replays" % self.replays if self.recorded
            else "unrecorded"
        )
        return "TrainStepTape(ops=%d, %s)" % (len(self._nodes), state)


def training_tape(model, inputs, target, loss_fn=None, modules=None):
    """The model's :class:`TrainStepTape` for this (shape, mode), or None.

    None means "train eagerly": tape compilation disabled, grad disabled,
    stable kernels active (serving arithmetic must never leak into a
    recorded fit), the model is not structurally replayable, or a previous
    recording for this key was poisoned.

    ``loss_fn`` is forwarded to the tape (see :class:`TrainStepTape`).
    ``modules``, when given, is the full list of modules the recorded
    program touches — losses that involve more than the model itself (an
    adversarial loss also runs its discriminator) list them all so the
    safety verdict covers every recorded forward.
    """
    if not _ENABLED[0] or not is_grad_enabled() or stable_kernels_active():
        return None
    state = model.__dict__
    safe = state.get("_tape_safe")
    if safe is None:
        checked = (model,) if modules is None else tuple(modules)
        safe = state["_tape_safe"] = all(module_tape_safe(m) for m in checked)
    if not safe:
        return None
    cache = state.get("_tape_cache")
    if cache is None:
        cache = state["_tape_cache"] = {}
    key = (np.shape(inputs),
           None if (target is inputs or target is None) else np.shape(target))
    tape = cache.get(key)
    if tape is None:
        if len(cache) >= _MAX_TAPES_PER_MODEL:
            cache.pop(next(iter(cache)))
        tape = cache[key] = TrainStepTape(model, loss_fn=loss_fn)
    if tape.failed:
        return None
    return tape


def release_tapes(model):
    """Drop ``model``'s recorded tapes (and their retained graphs/buffers).

    A recorded tape keeps every intermediate activation, gradient buffer,
    and kernel scratch array of one training graph alive — tens of MB for a
    long-series fit.  Training loops that keep their fitted model around
    (RAE/RDAE store it for scoring and persistence) call this once the fit
    finishes; the next fit simply re-records.  The ``_tape_safe`` verdict
    is kept — it is a property of the module structure, not of a
    recording.
    """
    model.__dict__.pop("_tape_cache", None)


# --------------------------------------------------------------------- #
# grad-free inference tapes (the compiled scoring path)
# --------------------------------------------------------------------- #

def weights_token(modules):
    """O(1) identity token of ``modules`` and the weights they hold.

    ``(module ids, weights generation)``: hot-swapping a parameter's value
    *in place* (``np.copyto``) keeps the token — recorded closures read
    ``weight.data`` live, so in-place swaps replay correctly without
    re-recording.  *Rebinding* any parameter's ``.data`` to a different
    array (weight hot-swap via assignment, ``load_state_dict``),
    constructing any module, or changing the member list changes it
    (see :func:`repro.nn.layers.weights_generation`), and the serving
    cache (:class:`repro.core.InferencePrograms`) then rebuilds the
    program.  The generation is process-wide, so one hot-swap rebuilds
    every cached program once; the check itself never walks a parameter.
    """
    return tuple(map(id, modules)), layers.weights_generation()


class ScoreTape:
    """One recorded no-grad score forward, replayable with fresh inputs.

    The first :meth:`run` call records ``module(x)`` under ``no_grad()`` +
    ``stable_kernels()`` — the exact serving configuration — so the
    captured closures ARE the ops the eager scoring path would have run,
    in the same order, with the same length-stable arithmetic.  Later
    :meth:`run` calls refresh the persistent input buffer and replay the
    op stream: no graph construction, no backward bookkeeping, no fresh
    output arrays.  Bit-identity to the eager stable forward is therefore
    by construction, not by approximation.

    Replays are serialised by an internal lock: a tape's buffers are
    shared mutable state, and two threads may reach the same tape (e.g.
    sessions sharing one :class:`repro.core.InferencePrograms`, refreshed
    from different threads; replays are short, so contention is rare).
    """

    def __init__(self, module, shape):
        self.module = module
        self.shape = tuple(int(d) for d in shape)
        self.recorded = False
        self.failed = None  # reason string once poisoned
        self.replays = 0
        self.x = None
        self._nodes = []
        self._forwards = []
        self._out = None
        self._lock = threading.Lock()

    # -- recorder callbacks (invoked from repro.nn.tensor) -------------- #
    def _add(self, tensor, forward):
        self._nodes.append(tensor)
        self._forwards.append(forward)

    def _add_call(self, fn):  # pragma: no cover - defensive
        self.failed = "side-effect call recorded inside a score forward"

    def _add_backward(self, root, seed, topo):  # pragma: no cover
        self.failed = "backward recorded inside a score forward"

    def _poison(self, reason):
        self.failed = reason

    # ------------------------------------------------------------------ #
    def run(self, array):
        """The module's stable-forward output for ``array``.  Returns the
        persistent output buffer — copy before storing it across calls.

        Raises ``ValueError`` unless ``array.shape`` is the tape's shape:
        copying into the recorded buffer would otherwise broadcast a
        mis-shaped batch silently."""
        if array.shape != self.shape:
            raise ValueError("score tape recorded for shape %s, got %s"
                             % (self.shape, array.shape))
        with self._lock:
            if not self.recorded:
                return self._record(array)
            xbuf = self.x.data
            if array is not xbuf:
                np.copyto(xbuf, array)
            nodes = self._nodes
            forwards = self._forwards
            for i in range(len(nodes)):
                node = nodes[i]
                node.data = forwards[i](node.data)
            self.replays += 1
            return self._out.data

    def _record(self, array):
        # The recording run IS a normal eager serving forward — the hooks
        # only observe, so even a recording that ends up poisoned has
        # produced the correct output for this call.  A recording that
        # raised left partial ops behind; start over.
        self._nodes, self._forwards = [], []
        self.x = Tensor(np.array(array, dtype=np.float64))
        previous = _push_tape(self)
        try:
            with no_grad(), stable_kernels():
                out = self.module(self.x)
        finally:
            _push_tape(previous)
        self._out = out
        self.recorded = True
        return out.data

    def __repr__(self):
        state = "failed: %s" % self.failed if self.failed else (
            "recorded, %d replays" % self.replays if self.recorded
            else "unrecorded"
        )
        return "ScoreTape(ops=%d, %s)" % (len(self._nodes), state)
