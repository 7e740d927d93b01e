"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper's
methods were implemented on PyTorch 1.1; since no deep-learning framework is
available offline, we provide a small but complete autograd engine with the
same semantics: a :class:`Tensor` wraps an ``np.ndarray``, records the
operations applied to it, and :meth:`Tensor.backward` propagates gradients
through the recorded graph in reverse topological order.

Gradient correctness of every primitive is verified against central finite
differences in ``tests/nn/test_autograd.py``.

Tape capture
------------
Every primitive computes its output through a *replayable forward closure*
``forward(out=None)`` that reads its parents' **current** ``.data`` and
refreshes whatever saved context the backward closure consumes.  Eager
execution simply calls the closure once at op-construction time; the
tape-compiled training path (:mod:`repro.nn.tape`) records ``(tensor,
forward)`` pairs and re-invokes the same closures with preallocated ``out``
buffers on later epochs.  Because eager and replay share one closure per op,
replayed results are bit-identical to eager by construction — same kernels,
same op order, same reduction order.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

# Grad mode is per-thread: repro.serve drains run inference under
# ``no_grad`` on whichever frontend connection thread triggered them, and
# the threaded member fits of repro.core.ensemble train concurrently; one
# thread's no_grad must never toggle graph construction for another's fit.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad).

    The flag is thread-local, so entering/exiting on one thread leaves every
    other thread's grad mode untouched.
    """

    def __enter__(self):
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled():
    """Return True when operations record the autograd graph (this thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


# --------------------------------------------------------------------- #
# Tape recording hooks (consumed by repro.nn.tape).
#
# Like grad mode, the active recorder is per-thread: the parallel ensemble
# fits of repro.core.ensemble record one tape per member on the thread that
# runs that member's fit.
_TAPE_STATE = threading.local()


def _push_tape(tape):
    """Install ``tape`` as this thread's recorder; return the previous one."""
    previous = getattr(_TAPE_STATE, "tape", None)
    _TAPE_STATE.tape = tape
    return previous


def _record(out, forward):
    """Register ``(out, forward)`` with the recording tape, if any."""
    tape = getattr(_TAPE_STATE, "tape", None)
    if tape is not None:
        tape._add(out, forward)


def _record_call(fn):
    """Register a replayable side-effect call with the recording tape.

    Optimizer steps, ``zero_grad`` and gradient clipping announce themselves
    through this hook so a recording that *contains* an optimisation step
    (e.g. the discriminator update inside BeatGAN's loss) replays it at the
    recorded position.  No tape is ever installed during replay, so the
    replayed call's own ``_record_call`` is a no-op — no recursion.
    """
    tape = getattr(_TAPE_STATE, "tape", None)
    if tape is not None:
        tape._add_call(fn)


def _poison_tape(reason):
    """Mark an in-progress recording as not replayable.

    Called by ops that bake run-time data into constants (softmax's max
    shift, dropout's sampled mask): replaying their recorded graph would
    silently reuse stale values, so the tape refuses to certify instead.
    """
    tape = getattr(_TAPE_STATE, "tape", None)
    if tape is not None:
        tape._poison(reason)


def _into(out, result):
    """Copy ``result`` into the reusable buffer ``out`` when one is given.

    Used by forward closures whose kernel cannot write in place (fancy
    indexing, np.where); the copy keeps the op's output buffer stable
    across replays without changing any computed value.
    """
    if out is None or out is result:
        return result
    np.copyto(out, result)
    return out


def _topo_order(root):
    """Topological order of ``root``'s graph via iterative DFS.

    Shared by :meth:`Tensor.backward` and the tape recorder so a replayed
    backward visits nodes in exactly the order the eager backward would
    (avoids recursion limits on long unrolled recurrent graphs).
    """
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad=False):
    """Coerce ``value`` (array-like or Tensor) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=requires_grad)


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64``.
    requires_grad:
        When True, gradients w.r.t. this tensor are accumulated in ``.grad``
        during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev",
                 "_grad_buf", "_grad_owned")

    def __init__(self, data, requires_grad=False, _prev=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._prev = tuple(_prev) if is_grad_enabled() else ()
        self._grad_buf = None
        self._grad_owned = False

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def numpy(self):
        """Return the underlying array (detached view)."""
        return self.data

    def item(self):
        return float(self.data)

    def detach(self):
        """Return a new Tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (
            self.shape,
            self.requires_grad,
        )

    # ------------------------------------------------------------------ #
    # graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data, parents, backward):
        """Create a graph node from ``parents`` with backward closure."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad):
        buf = self._grad_buf
        if buf is not None:
            # Tape replay: reuse the persistent gradient buffer instead of
            # allocating.  copyto/+= produce the same values as copy()/+.
            if self.grad is None:
                np.copyto(buf, grad)
                self.grad = buf
            elif self.grad is buf:
                buf += grad
            else:
                self.grad = self.grad + grad
            return
        grad = np.asarray(grad, dtype=np.float64)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _accumulate_product(self, a, b):
        """Accumulate ``a * b`` without materialising the product when this
        tensor has a persistent gradient buffer (identical values: writing
        the product straight into the buffer equals product-then-copy)."""
        buf = self._grad_buf
        if buf is not None and self.grad is None:
            np.multiply(a, b, out=buf)
            self.grad = buf
        else:
            self._accumulate(np.multiply(a, b))

    def _accumulate_owned(self, grad):
        """Adopt ``grad`` as this node's gradient without copying.

        For backward closures whose gradient is already materialised in an
        array (or view) that nothing mutates until the op's next backward
        pass: a fresh allocation, a closure-owned scratch buffer, or a view
        of the consumer's gradient.  Adopting the array instead of copying
        it is value-identical; the node is flagged so the tape never
        installs the adopted (caller-owned, possibly read-only) array as a
        reusable accumulation buffer.
        """
        if self.grad is None:
            self._grad_owned = True
            self.grad = grad
        else:
            self._accumulate(grad)

    def backward(self, grad=None):
        """Backpropagate ``grad`` (default: ones for scalars) through the graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("grad must be supplied for non-scalar tensors")
            grad = np.ones_like(self.data)
        topo = _topo_order(self)
        tape = getattr(_TAPE_STATE, "tape", None)
        if tape is not None:
            # A backward executed inside a recording (the inner
            # discriminator step of an adversarial loss): capture it as a
            # replayable event before running it eagerly.
            tape._add_backward(self, grad, topo)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        other = as_tensor(other)

        def forward(out=None):
            return np.add(self.data, other.data, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        out = Tensor._make(forward(), (self, other), backward)
        _record(out, forward)
        return out

    __radd__ = __add__

    def __neg__(self):
        def forward(out=None):
            return np.negative(self.data, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)

        def forward(out=None):
            return np.multiply(self.data, other.data, out=out)

        def backward(grad):
            if self.requires_grad:
                if grad.shape == self.shape == other.shape:
                    self._accumulate_product(grad, other.data)
                else:
                    self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                if grad.shape == other.shape == self.shape:
                    other._accumulate_product(grad, self.data)
                else:
                    other._accumulate(_unbroadcast(grad * self.data, other.shape))

        out = Tensor._make(forward(), (self, other), backward)
        _record(out, forward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)

        def forward(out=None):
            return np.divide(self.data, other.data, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / other.data**2, other.shape)
                )

        out = Tensor._make(forward(), (self, other), backward)
        _record(out, forward)
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def forward(out=None):
            return np.power(self.data, exponent, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def __matmul__(self, other):
        other = as_tensor(other)

        def forward(out=None):
            if out is None:
                return np.matmul(self.data, other.data)
            return np.matmul(self.data, other.data, out=out)

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.multiply.outer(grad, other.data)
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.multiply.outer(self.data, grad)
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        out = Tensor._make(forward(), (self, other), backward)
        _record(out, forward)
        return out

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def relu(self):
        # The backward's mask is kept only when a backward can run, decided
        # when the op is built: a grad-free replay is one np.maximum.
        track = is_grad_enabled() and self.requires_grad
        mask = np.empty(self.shape, dtype=bool) if track else None

        def forward(out=None):
            if track:
                np.greater(self.data, 0, out=mask)
            return np.maximum(self.data, 0.0, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_product(grad, mask)

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def leaky_relu(self, slope=0.01):
        saved = [None]

        def forward(out=None):
            saved[0] = mask = self.data > 0
            return _into(out, np.where(mask, self.data, slope * self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.where(saved[0], 1.0, slope))

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def tanh(self):
        def forward(out=None):
            return np.tanh(self.data, out=out)

        out_data = forward()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        _record(out, forward)
        return out

    def sigmoid(self):
        def forward(out=None):
            # Same op sequence as 1/(1 + exp(-clip(x))), computed in place
            # on the clip temporary.
            t = np.clip(self.data, -60.0, 60.0)
            np.negative(t, out=t)
            np.exp(t, out=t)
            t += 1.0
            return np.divide(1.0, t, out=out)

        out_data = forward()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        _record(out, forward)
        return out

    def exp(self):
        def forward(out=None):
            return np.exp(np.clip(self.data, -700.0, 700.0), out=out)

        out_data = forward()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        _record(out, forward)
        return out

    def log(self):
        def forward(out=None):
            return np.log(self.data, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def sqrt(self):
        def forward(out=None):
            return np.sqrt(self.data, out=out)

        out_data = forward()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        out = Tensor._make(out_data, (self,), backward)
        _record(out, forward)
        return out

    def abs(self):
        saved = [None]

        def forward(out=None):
            saved[0] = np.sign(self.data)
            return np.absolute(self.data, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_product(grad, saved[0])

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    # ------------------------------------------------------------------ #
    # reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims=False):
        def forward(out=None):
            return self.data.sum(axis=axis, keepdims=keepdims, out=out)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # The broadcast view is read-only and backed by the consumer's
            # gradient, which stays untouched for the rest of this pass.
            self._accumulate_owned(np.broadcast_to(g, self.shape))

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def forward(out=None):
            return self.data.reshape(shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(grad.reshape(original))

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def forward(out=None):
            return self.data.transpose(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_owned(grad.transpose(inverse))

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def __getitem__(self, key):
        def forward(out=None):
            # Basic indexing returns a view of the parent's (stable) buffer;
            # fancy indexing allocates.  Either way downstream closures read
            # parents' data live, so rebinding per replay is sound.
            return self.data[key]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate_owned(full)

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out

    def clip_value(self, low, high):
        """Clip with straight-through gradient inside the interval."""
        saved = [None]

        def forward(out=None):
            saved[0] = (self.data >= low) & (self.data <= high)
            return np.clip(self.data, low, high, out=out)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_product(grad, saved[0])

        out = Tensor._make(forward(), (self,), backward)
        _record(out, forward)
        return out


def concatenate(tensors, axis=0):
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def forward(out=None):
        if out is None:
            return np.concatenate([t.data for t in tensors], axis=axis)
        return np.concatenate([t.data for t in tensors], axis=axis, out=out)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    out = Tensor._make(forward(), tuple(tensors), backward)
    _record(out, forward)
    return out


def stack(tensors, axis=0):
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]

    def forward(out=None):
        if out is None:
            return np.stack([t.data for t in tensors], axis=axis)
        return np.stack([t.data for t in tensors], axis=axis, out=out)

    def backward(grad):
        parts = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(g)

    out = Tensor._make(forward(), tuple(tensors), backward)
    _record(out, forward)
    return out
