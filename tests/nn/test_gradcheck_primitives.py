"""Property-style gradient regression for the conv/pool primitives.

``test_autograd.py`` checks each primitive once, at a single shape, with
bias and padding fixed.  The streaming forward path leans on exactly these
primitives (conv1d/conv2d, pooling, upsampling) across many shapes — odd
lengths, no-bias convolutions, wide kernels, varying pool sizes — and on
inputs arriving in any float dtype.  This module sweeps those axes with
central finite differences.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

RNG = np.random.default_rng(2024)


def central_difference_check(fn, x, eps=1e-6, tol=1e-5):
    """Directional central finite difference vs the autograd gradient."""
    xt = nn.Tensor(x, requires_grad=True)
    (fn(xt) ** 2).sum().backward()
    analytic = xt.grad
    direction = RNG.standard_normal(x.shape)

    def scalar(a):
        return float((fn(nn.Tensor(a)).data ** 2).sum())

    numeric = (scalar(x + eps * direction) - scalar(x - eps * direction)) / (2 * eps)
    dotted = float((analytic * direction).sum())
    assert abs(numeric - dotted) <= tol * max(1.0, abs(numeric))


# (batch, c_in, length, c_out, kernel, padding, bias, members); with
# members, the weight and bias carry a leading member axis of size batch.
CONV1D_CASES = [
    (1, 1, 7, 1, 3, 0, True, False),    # minimal univariate stream window
    (2, 3, 12, 4, 3, 1, True, False),
    (1, 2, 20, 3, 5, 2, False, False),  # no-bias path
    (3, 1, 9, 2, 7, 3, True, False),    # wide kernel on a short window
    (2, 4, 16, 2, 1, 0, False, False),  # pointwise conv
    (3, 2, 10, 4, 3, 1, True, True),    # member axis: row m, kernel m
    (2, 1, 9, 3, 3, 1, True, True),     # member axis, single channel
]


def conv1d_case_id(case):
    return "-".join(str(v) for v in case[:7]) + ("-members" if case[7] else "")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "batch,c_in,length,c_out,kernel,padding,bias,members",
    CONV1D_CASES,
    ids=[conv1d_case_id(case) for case in CONV1D_CASES],
)
def test_conv1d_gradients(dtype, batch, c_in, length, c_out, kernel, padding,
                          bias, members):
    lead = (batch,) if members else ()
    x = RNG.standard_normal((batch, c_in, length)).astype(dtype)
    w = RNG.standard_normal(lead + (c_out, c_in, kernel))
    b = RNG.standard_normal(lead + (c_out,)) if bias else None
    bt = None if b is None else nn.Tensor(b)
    central_difference_check(
        lambda t: F.conv1d(t, nn.Tensor(w), bt, padding=padding), np.float64(x)
    )
    central_difference_check(
        lambda t: F.conv1d(nn.Tensor(x), t, bt, padding=padding), w
    )
    if b is not None:
        central_difference_check(
            lambda t: F.conv1d(nn.Tensor(x), nn.Tensor(w), t, padding=padding), b
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "shape,c_out,kernel,padding,bias",
    [
        ((1, 1, 6, 6), 2, 3, 1, True),
        ((2, 2, 8, 5), 3, 3, 0, False),   # non-square input, no bias
        ((1, 3, 9, 9), 2, 5, 2, True),    # wide kernel
    ],
)
def test_conv2d_gradients(dtype, shape, c_out, kernel, padding, bias):
    x = RNG.standard_normal(shape).astype(dtype)
    w = RNG.standard_normal((c_out, shape[1], kernel, kernel))
    b = RNG.standard_normal(c_out) if bias else None
    bt = None if b is None else nn.Tensor(b)
    central_difference_check(
        lambda t: F.conv2d(t, nn.Tensor(w), bt, padding=padding), np.float64(x)
    )
    central_difference_check(
        lambda t: F.conv2d(nn.Tensor(x), t, bt, padding=padding), w
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("length,kernel", [(8, 2), (13, 2), (12, 3), (7, 4)])
def test_max_pool1d_gradients(dtype, length, kernel):
    # Distinct values keep the argmax unique, so the subgradient is exact.
    x = RNG.permutation(length * 6).reshape(2, 3, length).astype(dtype)
    central_difference_check(lambda t: F.max_pool1d(t, kernel), np.float64(x) * 0.1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("h,w,kernel", [(6, 6, 2), (9, 11, 2), (9, 6, 3)])
def test_max_pool2d_gradients(dtype, h, w, kernel):
    x = RNG.permutation(h * w * 2).reshape(1, 2, h, w).astype(dtype)
    central_difference_check(lambda t: F.max_pool2d(t, kernel), np.float64(x) * 0.1)


@pytest.mark.parametrize("length,factor,size", [(5, 2, None), (5, 2, 9),
                                                (7, 3, 20), (4, 2, 8)])
def test_upsample1d_gradients(length, factor, size):
    x = RNG.standard_normal((2, 2, length))
    central_difference_check(lambda t: F.upsample1d(t, factor, size=size), x)


@pytest.mark.parametrize("shape,factor,size", [((1, 2, 4, 5), 2, None),
                                               ((1, 1, 3, 3), 2, (5, 7)),
                                               ((2, 2, 4, 4), 3, (11, 9))])
def test_upsample2d_gradients(shape, factor, size):
    x = RNG.standard_normal(shape)
    central_difference_check(lambda t: F.upsample2d(t, factor, size=size), x)


@pytest.mark.parametrize("padding", [1, 2, 5])
def test_pad_gradients(padding):
    central_difference_check(
        lambda t: F.pad1d(t, padding), RNG.standard_normal((2, 2, 6))
    )
    central_difference_check(
        lambda t: F.pad2d(t, padding), RNG.standard_normal((1, 2, 5, 6))
    )


def test_float32_input_promotes_to_float64():
    """The substrate stores float64; lower-precision streams must upcast."""
    x32 = RNG.standard_normal((1, 2, 8)).astype(np.float32)
    out = F.conv1d(nn.Tensor(x32), nn.Tensor(RNG.standard_normal((3, 2, 3))))
    assert out.data.dtype == np.float64


def test_conv_then_pool_composition_gradient():
    """The encoder block the streaming forward path actually runs."""
    w1 = nn.Tensor(RNG.standard_normal((4, 1, 3)))
    w2 = nn.Tensor(RNG.standard_normal((2, 4, 3)))

    def block(t):
        h = F.conv1d(t, w1, padding=1).relu()
        h = F.max_pool1d(h, 2)
        h = F.upsample1d(h, 2, size=t.shape[2])
        return F.conv1d(h, w2, padding=1)

    central_difference_check(block, RNG.standard_normal((1, 1, 16)) * 3.0)
