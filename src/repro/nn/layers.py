"""Neural network modules built on the :mod:`repro.nn.tensor` autograd engine.

The layer set mirrors what the paper's PyTorch implementation needs: linear
layers, 1D/2D convolutions with max pooling and nearest-neighbour upsampling
(the encoder/decoder building blocks of Eqs. 4-5 and 8-9), standard
activations, dropout, and layer normalisation (for the transformer baseline).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import functional as F
from .init import default_rng, xavier_uniform
from .receptive import UNBOUNDED, ReceptiveField
from .tensor import Tensor

__all__ = [
    "weights_generation",
    "Module",
    "Parameter",
    "Linear",
    "Conv1d",
    "Conv2d",
    "MaxPool1d",
    "MaxPool2d",
    "Upsample1d",
    "Upsample2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "Identity",
    "Sequential",
    "Dropout",
    "LayerNorm",
]


# The process-wide weights generation.  Every stored value is drawn once
# from the counter (draw, then store), so a generation read before a bump
# never matches after it, even when two bumps race.
_DRAWS = itertools.count(1)
_GENERATION = [0]


def _bump_generation():
    _GENERATION[0] = next(_DRAWS)


def weights_generation():
    """The process-wide weights generation.

    It changes whenever a :class:`Module` is constructed or a
    :class:`Parameter`'s ``.data`` is rebound to a different array, and at
    no other time: in-place updates (``np.copyto``, the optimisers'
    ``p.data -= ...``) keep it.  So ``(module ids, generation)`` names one
    set of live weights in O(1), whatever the model size — the cache
    token of every compiled score program (see
    :func:`repro.nn.tape.weights_token`).  A module id can only recur
    after a construction, which bumps.
    """
    return _GENERATION[0]


_TENSOR_DATA = Tensor.__dict__["data"]  # the Tensor slot behind .data


def _rebind_data(param, value):
    try:
        current = _TENSOR_DATA.__get__(param)
    except AttributeError:  # the first assignment, in Tensor.__init__
        current = value
    # Store, then bump: a token read in between carries the old generation
    # and only refreshes once more.  Bumping first could let a reader cache
    # the old array under the new generation for good.
    _TENSOR_DATA.__set__(param, value)
    if value is not current:
        _bump_generation()


class Parameter(Tensor):
    """A Tensor registered as a learnable parameter of a Module.

    ``.data`` is a property over the Tensor slot: rebinding it to a
    different array bumps :func:`weights_generation` (the hot-swap
    signal); in-place updates and the constructor's first assignment do
    not.
    """

    data = property(_TENSOR_DATA.__get__, _rebind_data)

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with parameter registration and train/eval mode."""

    def __new__(cls, *args, **kwargs):
        # Every route to a new module (construction, copy, unpickling)
        # bumps the weights generation, so a freed module's id that comes
        # back can never match a cached program's token.
        _bump_generation()
        return super().__new__(cls)

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def receptive_field(self):
        """This module's time-axis dependence cone (see :mod:`.receptive`).

        The base class answers :data:`repro.nn.receptive.UNBOUNDED` — the
        only sound default for an arbitrary ``forward``.  Structured
        primitives override with exact extents, and
        :class:`Sequential` composes its children, which is what lets
        :mod:`repro.core.scoring` bound how far a new arrival's influence
        reaches back into a window.
        """
        return UNBOUNDED

    def parameters(self):
        """Yield all Parameters of this module and its sub-modules."""
        seen = set()
        for __, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            qualified = "%s.%s" % (prefix, name) if prefix else name
            if isinstance(value, Parameter):
                yield qualified, value
            elif isinstance(value, Module):
                yield from value.named_parameters(qualified)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters("%s.%d" % (qualified, i))
                    elif isinstance(item, Parameter):
                        yield "%s.%d" % (qualified, i), item

    def zero_grad(self):
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode=True):
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def num_parameters(self):
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def state_dict(self):
        """Copy of all parameter arrays keyed by qualified name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state):
        """Install copies of parameter arrays keyed by qualified name."""
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError("missing parameter %r" % name)
            if param.data.shape != state[name].shape:
                raise ValueError("shape mismatch for %r" % name)
            param.data = state[name].copy()


class Linear(Module):
    """Affine map ``y = x W + b`` for inputs ``(..., in_features)``."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform((in_features, out_features), in_features, out_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def receptive_field(self):
        """Dense-over-time: callers flatten time into the feature axis
        (see :class:`repro.core.autoencoders.FCSeriesAE`), so a Linear
        layer's outputs may depend on arbitrarily distant positions."""
        return UNBOUNDED


class Conv1d(Module):
    """1D convolution over ``(N, C_in, L)`` with 'same' or explicit padding."""

    def __init__(self, in_channels, out_channels, kernel_size, padding="same", rng=None):
        super().__init__()
        rng = default_rng(rng)
        if padding == "same":
            padding = kernel_size // 2
        self.padding = padding
        fan_in = in_channels * kernel_size
        fan_out = out_channels * kernel_size
        self.weight = Parameter(
            xavier_uniform(
                (out_channels, in_channels, kernel_size), fan_in, fan_out, rng
            )
        )
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x):
        return F.conv1d(x, self.weight, self.bias, padding=self.padding)

    def receptive_field(self):
        return ReceptiveField.conv(self.weight.shape[2], self.padding)


class Conv2d(Module):
    """2D convolution over ``(N, C_in, H, W)`` with 'same' or explicit padding."""

    def __init__(self, in_channels, out_channels, kernel_size, padding="same", rng=None):
        super().__init__()
        rng = default_rng(rng)
        if padding == "same":
            padding = kernel_size // 2
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        self.weight = Parameter(
            xavier_uniform(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in,
                fan_out,
                rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x):
        return F.conv2d(x, self.weight, self.bias, padding=self.padding)


class MaxPool1d(Module):
    def __init__(self, kernel=2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x):
        return F.max_pool1d(x, self.kernel)

    def receptive_field(self):
        return ReceptiveField.pool(self.kernel)


class MaxPool2d(Module):
    def __init__(self, kernel=2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x):
        return F.max_pool2d(x, self.kernel)


class Upsample1d(Module):
    def __init__(self, factor=2, size=None):
        super().__init__()
        self.factor = factor
        self.size = size

    def forward(self, x):
        return F.upsample1d(x, self.factor, self.size)

    def receptive_field(self):
        # The `size` clamp only ever *drops* dependence at the right edge,
        # so the factor-only cone stays a sound over-approximation.
        return ReceptiveField.upsample(self.factor)


class Upsample2d(Module):
    def __init__(self, factor=2, size=None):
        super().__init__()
        self.factor = factor
        self.size = size

    def forward(self, x):
        return F.upsample2d(x, self.factor, self.size)


class _Pointwise(Module):
    """Base for elementwise modules: their time cone is the identity."""

    def receptive_field(self):
        return ReceptiveField.pointwise()


class ReLU(_Pointwise):
    def forward(self, x):
        return x.relu()


class Tanh(_Pointwise):
    def forward(self, x):
        return x.tanh()


class Sigmoid(_Pointwise):
    def forward(self, x):
        return x.sigmoid()


class LeakyReLU(_Pointwise):
    def __init__(self, slope=0.01):
        super().__init__()
        self.slope = slope

    def forward(self, x):
        return x.leaky_relu(self.slope)


class Identity(_Pointwise):
    def forward(self, x):
        return x


class Sequential(Module):
    """Chain modules; iterable and indexable like a list."""

    def __init__(self, *modules):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x):
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.modules)

    def __len__(self):
        return len(self.modules)

    def __getitem__(self, index):
        return self.modules[index]

    def receptive_field(self):
        """Compose the children's cones in execution order; one unbounded
        stage makes the whole chain unbounded."""
        field = ReceptiveField.pointwise()
        for module in self.modules:
            field = field.then(module.receptive_field())
            if not field.bounded:
                break
        return field


class Dropout(_Pointwise):
    def __init__(self, p=0.5, rng=None):
        super().__init__()
        self.p = p
        self.rng = default_rng(rng)

    def forward(self, x):
        return F.dropout(x, self.p, self.rng, training=self.training)


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim, eps=1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x):
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta

    def receptive_field(self):
        """Normalises over the last axis — the time axis for ``(N, C, L)``
        conv tensors — so every output depends on the whole window."""
        return UNBOUNDED
