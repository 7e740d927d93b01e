"""Member-stacked modules: one program over M same-spec networks.

:func:`repro.nn.functional.conv1d` accepts a leading member axis — weight
``(M, F, C, K)``, bias ``(M, F)``, input ``(M, C, L)``, row ``m`` convolved
with member ``m``'s kernel — and pooling, upsampling and activations
already treat that axis as their batch axis.  So M same-spec conv networks
run as *one* ordinary module whose ``Conv1d`` parameters are stacked
``(M, ...)``: :func:`stack_modules` builds it by copying the first
member's structure and stacking every parameter.  Two callers use it:

* **Training** (:class:`repro.core.ensemble.RobustEnsemble`,
  ``compile="batched"``): the members of an identical-spec group train as
  one stacked module through :func:`batched_train_reconstruction`, and
  the tape replays that single program per epoch.
* **Serving** (:class:`repro.core.scoring.InferencePrograms`):
  :class:`StackedScoreProgram` owns a stacked copy of M fitted detectors'
  serving modules and one :class:`repro.nn.tape.ScoreTape` recorded over
  it, so one replay scores M window slices.  The program is immutable: the
  serving cache builds a new one when a member's weights are rebound.

Bit-identity to the per-member computation is a hard contract (stacking
changes wall-clock, never results).  Slice ``m`` of every member-axis conv
runs the serial kernel's exact floating-point sequence (see
:func:`~repro.nn.functional.conv1d`), and the training helpers here keep
the remaining reductions per member:

* the loss scales by ``1 / (D * C)`` — each member's *own* element count —
  and sums each member's contiguous block, so gradients match the serial
  per-member ``mse_loss`` bit for bit;
* gradient clipping and Adam run per member slice (elementwise ops on the
  stacked arrays), with the optimiser's shared step counter in lockstep
  with every still-active member's serial counter.
"""

from __future__ import annotations

import numpy as np

from . import tape as nn_tape
from .layers import Conv1d, Module, Parameter
from .tensor import Tensor, no_grad

__all__ = [
    "StackedScoreProgram",
    "batched_mse_loss",
    "batched_clip_grad_norm",
    "batched_train_reconstruction",
    "stack_modules",
    "stacked_member_token",
]

#: O(1) identity token of the member modules and the weights generation:
#: ``(member ids, generation)``.  The serving cache keys programs by the
#: ids and rebuilds one when the generation moves.  A
#: :class:`StackedScoreProgram` holds *copies* of the member weights, so
#: hot-swap by rebinding a parameter's ``.data`` (which moves the
#: generation), never by mutating a live fitted module in place.
stacked_member_token = nn_tape.weights_token


def _stack(position, owner=None):
    """Walk the members' structures in parallel (``position`` holds each
    member's value at one place in them, inside module ``owner``), copying
    the first member's and stacking each parameter across members."""
    lead = position[0]
    if isinstance(lead, Parameter):
        if type(owner) is not Conv1d:
            raise ValueError(
                "%s holds parameters; only Conv1d takes a member axis"
                % type(owner).__name__
            )
        if any(not isinstance(p, Parameter) or p.data.shape != lead.data.shape
               for p in position):
            raise ValueError("member parameter shapes diverge")
        return Parameter(np.stack([p.data for p in position]))
    if isinstance(lead, (list, tuple)):
        if any(len(value) != len(lead) for value in position):
            raise ValueError("member structures diverge")
        return type(lead)(_stack(items, owner) for items in zip(*position))
    if not isinstance(lead, Module):
        return lead
    if any(type(value) is not type(lead) for value in position):
        raise ValueError("member module types diverge")
    # A shallow copy that skips Module.__new__: the clone is private to a
    # stacked program and never a cache-token member, so building one must
    # not bump the weights generation (that would refresh every cached
    # program, this one's groupmates included).
    clone = object.__new__(type(lead))
    state = vars(clone)
    state.update(vars(lead))
    # Recorded tapes belong to the member (and hold locks): never share them.
    nn_tape.release_tapes(clone)
    for name, item in vars(lead).items():
        if isinstance(item, (Module, Parameter, list, tuple)):
            state[name] = _stack([vars(value).get(name) for value in position],
                                 lead)
    return clone


def stack_modules(modules):
    """One module running M same-spec ``modules`` along a member axis.

    The result copies the structure of ``modules[0]`` and replaces each of
    its parameters with the ``(M, ...)`` stack of the members' parameters,
    so its ``named_parameters`` order is the members'; its forward takes
    ``(M, C, L)`` inputs, row ``m`` for member ``m``.  Raises
    ``ValueError`` when the members' module types, structure or parameter
    shapes diverge, or when a parameter-holding submodule is not a
    ``Conv1d`` (a stacked ``Linear`` would broadcast the member axis
    wrongly, so FC ablations decline).
    """
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one member to stack")
    return _stack(modules)


def batched_mse_loss(prediction, target):
    """Sum over members of each member's own ``mse_loss``.

    The per-element gradient is ``2 * diff / (D * C)`` — each member's own
    element count, exactly the serial ``mse_loss`` scaling — and the
    per-member reduction sums the same contiguous ``(D, C)`` block the
    serial loss sums, so both values and gradients match bit for bit.
    """
    diff = prediction - Tensor(target)
    sq = diff * diff
    per_member = sq.sum(axis=(1, 2))
    numel = float(target.shape[1] * target.shape[2])
    return (per_member * (1.0 / numel)).sum()


def batched_clip_grad_norm(parameters, max_norm, n_members):
    """Per-member-slice gradient clipping matching serial ``clip_grad_norm``.

    Each member's norm accumulates ``np.dot`` products over its parameter
    slices in the same parameter order (and the same contiguous memory
    order) as the serial clip, and only clipped members are rescaled —
    unclipped slices are multiplied by exactly 1.0, a bitwise identity.
    Returns the per-member pre-clip norms.
    """
    parameters = [p for p in parameters if p.grad is not None]
    totals = np.zeros(n_members)
    for p in parameters:
        rows = p.grad.reshape(n_members, -1)
        for i in range(n_members):
            row = rows[i]
            totals[i] += np.dot(row, row)
    norms = np.sqrt(totals)
    clipped = (norms > max_norm) if max_norm > 0 else np.zeros(n_members, bool)
    if clipped.any():
        scales = np.ones(n_members)
        scales[clipped] = max_norm / (norms[clipped] + 1e-12)
        for p in parameters:
            p.grad *= scales.reshape((n_members,) + (1,) * (p.grad.ndim - 1))
    return norms


def batched_train_reconstruction(model, optimizer, inputs, epochs, n_members):
    """Full-batch reconstruction training of a stacked member group.

    The batched counterpart of
    :func:`repro.core.autoencoders.train_reconstruction` for a
    :func:`stack_modules` model: minimises each member's own
    reconstruction loss for ``epochs`` Adam steps and returns the final
    stacked reconstruction ``(M, D, C)`` as a plain array.  The first step
    records a tape of the whole batched program; later epochs — and later
    calls from the ensemble's ADMM iterations — replay it.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    epochs = max(int(epochs), 1)
    params = list(model.parameters())

    def loss_fn(x):
        prediction = model(x)
        return batched_mse_loss(prediction, x.data), prediction

    done = 0
    tape = nn_tape.training_tape(model, inputs, None, loss_fn=loss_fn)
    if tape is not None:
        for __ in range(epochs):
            optimizer.zero_grad()
            tape.step(inputs, None)
            batched_clip_grad_norm(params, 5.0, n_members)
            optimizer.step()
            done += 1
            if tape.failed:
                break
        if not tape.failed:
            return np.array(tape.forward(inputs))
    for __ in range(epochs - done):
        optimizer.zero_grad()
        loss, __prediction = loss_fn(Tensor(inputs))
        loss.backward()
        batched_clip_grad_norm(params, 5.0, n_members)
        optimizer.step()
    with no_grad():
        return model(Tensor(inputs)).data


class StackedScoreProgram:
    """Compiled stacked score forward: M fitted members, one replay.

    Owns ``stacked`` — :func:`stack_modules` over the members' serving
    modules — and one :class:`repro.nn.tape.ScoreTape` recorded over it
    for the input shape ``(M, C_in, L)``, row ``m`` a window slice owned
    by member ``m``.  The tape records under the serving kernels, whose
    member-axis conv computes slice ``m`` with the serial length-stable
    arithmetic, so output row ``m`` is bit-identical to member ``m``'s
    solo stable forward.  Raises ``ValueError`` when the members do not
    stack.

    The stacked parameters are replay state: the tape's closures read
    their ``.data`` live, so mutating them outside this class
    desynchronises the program from its members silently (the
    ``stacked-weight-mutation`` lint rule flags it).  Hot-swap member
    weights by rebinding ``.data``; :func:`stacked_member_token` changes
    and the owning cache builds a new program from the new weights.
    """

    #: The stacked module the recorded tape reads; mutating it outside
    #: this class is flagged by ``repro lint``.
    _STACKED_BUFFERS = ("stacked",)

    def __init__(self, modules, shape):
        modules = list(modules)
        shape = tuple(int(d) for d in shape)
        if shape[0] != len(modules):
            raise ValueError(
                "%d members but the batch stacks %d rows"
                % (len(modules), shape[0])
            )
        self.stacked = stack_modules(modules)
        if not nn_tape.module_tape_safe(self.stacked):
            raise ValueError("%s does not replay from a tape"
                             % type(self.stacked).__name__)
        self.n_members = len(modules)
        self._tape = nn_tape.ScoreTape(self.stacked, shape)

    @property
    def replays(self):
        return self._tape.replays

    @property
    def failed(self):
        """Why the recording is not replayable, or None (see
        :attr:`repro.nn.tape.ScoreTape.failed`)."""
        return self._tape.failed

    def run(self, batch):
        """The stacked reconstruction of ``batch`` (shape ``(M, C_in, L)``).

        Returns the tape's persistent output buffer — consume it before
        the next ``run``.  The first call records; replays are serialised
        by the tape's lock."""
        return self._tape.run(batch)

    def __repr__(self):
        return "StackedScoreProgram(members=%d, replays=%d)" % (
            self.n_members, self.replays
        )
