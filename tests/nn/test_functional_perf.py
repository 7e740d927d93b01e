"""Allocation/behaviour regression guards for the structured ops."""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F


def test_upsample1d_does_not_materialise_repeat(monkeypatch):
    """upsample1d gathers through an index map; an earlier version also
    computed np.repeat(x, factor) and immediately discarded it.  Guard the
    dead allocation out for good."""

    def banned(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("upsample1d must not call np.repeat")

    monkeypatch.setattr(np, "repeat", banned)
    x = nn.Tensor(np.arange(12.0).reshape(1, 2, 6), requires_grad=True)
    out = F.upsample1d(x, 2)
    assert out.shape == (1, 2, 12)
    out.sum().backward()
    assert x.grad is not None


@pytest.mark.parametrize("factor,size", [(2, None), (2, 11), (2, 17), (3, 10)])
def test_upsample1d_matches_index_gather(factor, size):
    data = np.random.default_rng(0).standard_normal((1, 2, 7))
    out = F.upsample1d(nn.Tensor(data), factor, size)
    target = 7 * factor if size is None else size
    index = np.minimum(np.arange(target) // factor, 6)
    assert np.array_equal(out.data, data[:, :, index])


@pytest.mark.parametrize("factor,size", [(2, None), (2, 11), (2, 17), (3, 10)])
def test_upsample1d_backward_matches_scatter_reference(factor, size):
    """The grouped-sum backward must equal the reference np.add.at scatter
    bit for bit (for factor 2 the two-term group sums are associativity-
    identical; other factors still go through add.at)."""
    rng = np.random.default_rng(1)
    data = rng.standard_normal((1, 2, 7))
    x = nn.Tensor(data, requires_grad=True)
    out = F.upsample1d(x, factor, size)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)

    target = out.shape[2]
    index = np.minimum(np.arange(target) // factor, 6)
    reference = np.zeros_like(data)
    np.add.at(reference, (slice(None), slice(None), index), grad)
    assert np.array_equal(x.grad, reference)


def test_conv1d_single_channel_matches_multichannel_semantics():
    """conv1d dispatches C_in==1 inputs through the im2col einsum and wider
    inputs through per-tap GEMMs; both must agree with the naive direct
    convolution to float tolerance."""
    rng = np.random.default_rng(2)
    for c_in in (1, 3):
        x = rng.standard_normal((1, c_in, 20))
        w = rng.standard_normal((4, c_in, 3))
        b = rng.standard_normal(4)
        out = F.conv1d(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b)).data
        naive = np.zeros((1, 4, 18))
        for f in range(4):
            for c in range(c_in):
                for tap in range(3):
                    naive[0, f] += w[f, c, tap] * x[0, c, tap : tap + 18]
            naive[0, f] += b[f]
        assert np.allclose(out, naive, atol=1e-10)


def test_conv2d_matches_naive_convolution():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 8, 9))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out = F.conv2d(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b)).data
    naive = np.zeros((2, 4, 6, 7))
    for f in range(4):
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    naive[:, f] += w[f, c, i, j] * x[:, c, i : i + 6, j : j + 7]
        naive[:, f] += b[f]
    assert np.allclose(out, naive, atol=1e-10)


def _conv1d_input_grad_by_matmul(weight, grad, x_shape, length):
    """conv1d's input gradient as per-tap (C_in, C_out) @ (C_out, L_out)
    GEMMs — the formulation the C_out == 1 broadcast multiply replaced."""
    gx = np.zeros(x_shape)
    for tap in range(weight.shape[-1]):
        gx[:, :, tap : tap + length] += np.matmul(
            np.swapaxes(weight[..., tap], -1, -2), grad)
    return gx


@pytest.mark.parametrize("n,c_in,members", [(1, 4, False), (2, 3, False),
                                            (4, 8, True), (3, 1, True)],
                         ids=["solo", "batch", "members", "members-c_in1"])
def test_conv1d_readout_input_grad_equals_k1_matmul(n, c_in, members):
    """With C_out == 1 the input gradient is a broadcast multiply; a K=1
    GEMM computes the same single products, so the two agree bit for bit."""
    rng = np.random.default_rng(4)
    lead = (n,) if members else ()
    x = nn.Tensor(rng.standard_normal((n, c_in, 40)), requires_grad=True)
    w = rng.standard_normal(lead + (1, c_in, 3))
    out = F.conv1d(x, nn.Tensor(w))
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    assert np.array_equal(
        x.grad, _conv1d_input_grad_by_matmul(w, grad, x.shape, 38))


def _conv2d_reference(x, w, b, padding, grad):
    """Naive conv2d forward and gradients, one tap-window at a time."""
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    __, __, kh, kw = w.shape
    h_out, w_out = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], w.shape[0], h_out, w_out)) + b[:, None, None]
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + h_out, j : j + w_out]
            out += np.einsum("fc,nchw->nfhw", w[:, :, i, j], window)
            gw[:, :, i, j] = np.einsum("nfhw,nchw->fc", grad, window)
            gxp[:, :, i : i + h_out, j : j + w_out] += np.einsum(
                "fc,nfhw->nchw", w[:, :, i, j], grad)
    gx = gxp[:, :, p : xp.shape[2] - p, p : xp.shape[3] - p]
    return out, gx, gw, grad.sum(axis=(0, 2, 3))


CONV2D_SWEEP = [
    # (input shape, C_out, kernel, padding)
    ((1, 1, 50, 151), 4, 3, 1),   # RDAE encoder, first layer
    ((1, 4, 50, 151), 8, 3, 1),   # RDAE encoder, second layer
    ((1, 8, 50, 151), 8, 3, 1),   # RDAE decoder
    ((1, 8, 50, 151), 4, 3, 1),   # RDAE decoder
    ((1, 4, 50, 151), 1, 3, 1),   # RDAE readout (C_out == 1)
    ((3, 2, 9, 11), 3, 3, 1),     # batch N=3
    ((2, 3, 7, 8), 2, 3, 0),      # no padding
    ((1, 2, 6, 9), 3, 2, 0),      # even kernel
    ((2, 2, 3, 10), 2, 3, 0),     # H_out == 1
    ((2, 2, 10, 3), 2, 3, 0),     # W_out == 1
    ((1, 1, 5, 5), 1, 3, 1),      # C_in == C_out == 1
]


@pytest.mark.parametrize("shape,c_out,kernel,padding", CONV2D_SWEEP,
                         ids=["x".join(map(str, c[0])) + "-f%d-k%d-p%d" % c[1:]
                              for c in CONV2D_SWEEP])
@pytest.mark.parametrize("strided", [False, True], ids=["contig", "strided"])
def test_conv2d_flat_shift_matches_naive_reference(shape, c_out, kernel,
                                                   padding, strided):
    rng = np.random.default_rng(5)
    if strided:
        # A transposed view: the input is not C-contiguous.
        x = rng.standard_normal(shape[:2] + shape[:1:-1]).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    else:
        x = rng.standard_normal(shape)
    w = rng.standard_normal((c_out, shape[1], kernel, kernel))
    b = rng.standard_normal(c_out)
    xt = nn.Tensor(x, requires_grad=True)
    wt = nn.Tensor(w, requires_grad=True)
    bt = nn.Tensor(b, requires_grad=True)
    out = F.conv2d(xt, wt, bt, padding=padding)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    expected = _conv2d_reference(x, w, b, padding, grad)
    for got, want in zip((out.data, xt.grad, wt.grad, bt.grad), expected):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _count_products(monkeypatch):
    """Count the 2-D products conv2d asks NumPy for: a batched np.matmul
    counts one GEMM per batch slice (NumPy loops over the batch and calls
    BLAS once per slice), any other np.matmul/np.multiply/np.einsum/np.dot
    call counts one."""
    calls = [0]

    def counted(fn, batched):
        def wrapper(*args, **kwargs):
            if batched and len(args) >= 2:
                shapes = [np.shape(a)[:-2] for a in args[:2]]
                calls[0] += math.prod(np.broadcast_shapes(*shapes))
            else:
                calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("matmul", "multiply", "einsum", "dot"):
        monkeypatch.setattr(np, name, counted(getattr(np, name),
                                              name == "matmul"))
    return calls


@pytest.mark.parametrize("c_in,c_out", [(1, 4), (4, 8), (4, 1)])
@pytest.mark.parametrize("n", [1, 2])
def test_conv2d_issues_one_product_per_tap_whatever_h(monkeypatch, c_in,
                                                      c_out, n):
    """conv2d's flat-shift layout makes each tap one GEMM (or broadcast
    multiply) per batch row over the whole grid; an earlier version issued
    one GEMM per output row per tap, 450 per forward on RDAE's 50-row
    grid."""
    rng = np.random.default_rng(6)
    bound = 9 * n  # kh * kw taps, batched over N
    for h in (6, 50):
        x = rng.standard_normal((n, c_in, h, 31))
        w = rng.standard_normal((c_out, c_in, 3, 3))
        for grad_of in ("x", "weight"):
            xt = nn.Tensor(x, requires_grad=grad_of == "x")
            wt = nn.Tensor(w, requires_grad=grad_of == "weight")
            calls = _count_products(monkeypatch)
            out = F.conv2d(xt, wt, padding=1)
            assert calls[0] <= bound
            calls[0] = 0
            out.backward(np.ones(out.shape))
            assert calls[0] <= bound
            monkeypatch.undo()
