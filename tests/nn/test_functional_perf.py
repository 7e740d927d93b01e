"""Allocation/behaviour regression guards for the structured ops."""

import math
import tracemalloc

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_array_equal

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
    """The per-phase strided adds must equal the reference np.add.at
    scatter bit for bit: each input cell sums its copies' gradients in the
    same order, the right-edge clamp included."""
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
    """conv1d dispatches C_in==1 inputs through one window matmul and wider
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


# ---------------------------------------------------------------------- #
# The strided max-pool, maximum ReLU, window-matmul conv and direct-write
# input gradients against the formulations they replaced, bit for bit
# (assert_array_equal: only the sign of a zero may differ).


def _max_pool1d_reference(x, kernel, grad):
    """argmax + take_along_axis forward, put_along_axis backward."""
    n, c, length = x.shape
    l_out = length // kernel
    trimmed = x[:, :, : l_out * kernel].reshape(n, c, l_out, kernel)
    arg = trimmed.argmax(axis=3)
    out = np.take_along_axis(trimmed, arg[..., None], axis=3)[..., 0]
    gx = np.zeros(x.shape)
    view = gx[:, :, : l_out * kernel].reshape(n, c, l_out, kernel)
    np.put_along_axis(view, arg[..., None], grad[..., None], axis=3)
    return out, gx


def _max_pool2d_reference(x, kernel, grad):
    n, c, h, w = x.shape
    h_out, w_out = h // kernel, w // kernel
    windows = x[:, :, : h_out * kernel, : w_out * kernel].reshape(
        n, c, h_out, kernel, w_out, kernel).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(n, c, h_out, w_out, -1)
    arg = windows.argmax(axis=4)
    out = np.take_along_axis(windows, arg[..., None], axis=4)[..., 0]
    gwin = np.zeros((n, c, h_out, w_out, kernel * kernel))
    np.put_along_axis(gwin, arg[..., None], grad[..., None], axis=4)
    gwin = gwin.reshape(n, c, h_out, w_out, kernel, kernel).transpose(
        0, 1, 2, 4, 3, 5).reshape(n, c, h_out * kernel, w_out * kernel)
    gx = np.zeros(x.shape)
    gx[:, :, : h_out * kernel, : w_out * kernel] = gwin
    return out, gx


def _pool_input(rng, shape, ties, strided):
    """Pool input: integer levels make ties common; ``strided`` gives a
    non-contiguous (transposed) view."""
    if strided:
        shape = shape[:-2] + shape[:-3:-1]
    data = (rng.integers(-2, 3, shape).astype(float) if ties
            else rng.standard_normal(shape))
    if strided:
        data = np.swapaxes(data, -1, -2)
        assert not data.flags.c_contiguous
    return data


POOL_CASES = [
    # (pool, reference, input shape, kernel)
    (F.max_pool1d, _max_pool1d_reference, (1, 3, 20), 2),
    (F.max_pool1d, _max_pool1d_reference, (2, 3, 23), 3),   # trailing 2
    (F.max_pool1d, _max_pool1d_reference, (8, 4, 201), 2),  # members, trailing 1
    (F.max_pool2d, _max_pool2d_reference, (1, 4, 50, 151), 2),
    (F.max_pool2d, _max_pool2d_reference, (2, 2, 11, 13), 3),
    (F.max_pool2d, _max_pool2d_reference, (8, 1, 9, 6), 2),
]


@pytest.mark.parametrize("pool,reference,shape,kernel", POOL_CASES,
                         ids=["%s-%s-k%d" % (c[0].__name__, "x".join(
                             map(str, c[2])), c[3]) for c in POOL_CASES])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
@pytest.mark.parametrize("strided", [False, True], ids=["contig", "strided"])
def test_max_pool_matches_argmax_reference(pool, reference, shape, kernel,
                                           ties, strided):
    rng = np.random.default_rng(7)
    data = _pool_input(rng, shape, ties, strided)
    x = nn.Tensor(data, requires_grad=True)
    out = pool(x, kernel)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    want_out, want_gx = reference(data, kernel, grad)
    assert_array_equal(out.data, want_out)
    assert_array_equal(x.grad, want_gx)
    with nn.no_grad():
        assert_array_equal(pool(nn.Tensor(data), kernel).data, want_out)


def test_relu_matches_mask_multiply():
    rng = np.random.default_rng(8)
    data = rng.integers(-2, 3, (8, 16, 50)).astype(float)
    data[0, 0, :3] = (np.nan, -0.0, 0.0)
    x = nn.Tensor(data, requires_grad=True)
    out = x.relu()
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    assert_array_equal(out.data, data * (data > 0))
    assert_array_equal(x.grad, grad * (data > 0))
    with nn.no_grad():
        assert_array_equal(nn.Tensor(data).relu().data, out.data)


def _upsample2d_grad_reference(grad, h, w, factor):
    th, tw = grad.shape[2:]
    row = np.minimum(np.arange(th) // factor, h - 1)
    col = np.minimum(np.arange(tw) // factor, w - 1)
    gx = np.zeros(grad.shape[:2] + (h, w))
    np.add.at(gx, (slice(None), slice(None), row[:, None], col[None, :]), grad)
    return gx


@pytest.mark.parametrize("factor,size", [
    (2, None), (2, (11, 15)), (2, (9, 12)), (2, (7, 16)), (3, None),
    (3, (17, 20)), (3, (13, 22)),
], ids=["2h-2w", "2h+1-2w+1", "truncated", "mixed", "f3", "f3-clamp",
        "f3-truncated"])
def test_upsample2d_backward_matches_add_at(factor, size):
    """The phase-view adds replay np.add.at's row-major sums exactly, the
    right/bottom edge clamp and truncating sizes included."""
    rng = np.random.default_rng(9)
    data = rng.standard_normal((2, 3, 5, 7))
    x = nn.Tensor(data, requires_grad=True)
    out = F.upsample2d(x, factor, size)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    assert_array_equal(x.grad, _upsample2d_grad_reference(grad, 5, 7, factor))


@pytest.mark.parametrize("members", [False, True], ids=["serial", "members"])
@pytest.mark.parametrize("c_out,k", [(16, 3), (4, 5), (8, 2)])
def test_conv1d_single_channel_forward_matches_einsum(members, c_out, k):
    """The C_in == 1 window matmul equals the im2col einsum it replaced,
    run over all rows (serial) or per member slice (member axis)."""
    rng = np.random.default_rng(10)
    n = 8
    data = rng.standard_normal((n, 1, 300))
    weight = rng.standard_normal(((n,) if members else ()) + (c_out, 1, k))
    out = F.conv1d(nn.Tensor(data), nn.Tensor(weight)).data
    cols = sliding_window_view(data, k, axis=2)
    if members:
        want = np.concatenate([
            np.einsum("nclk,fck->nfl", cols[i : i + 1], weight[i],
                      optimize=True) for i in range(n)])
        for i in range(n):
            solo = F.conv1d(nn.Tensor(data[i : i + 1]), nn.Tensor(weight[i]))
            assert_array_equal(out[i : i + 1], solo.data)
    else:
        want = np.einsum("nclk,fck->nfl", cols, weight, optimize=True)
    assert_array_equal(out, want)


@pytest.mark.parametrize("n,c_in,c_out,members,padding", [
    (1, 4, 8, False, 1), (3, 1, 4, False, 0), (8, 4, 8, True, 1),
    (8, 1, 4, True, 2),
], ids=["solo", "batch-c_in1", "members", "members-c_in1"])
def test_conv1d_input_grad_equals_fill_then_add(n, c_in, c_out, members,
                                                padding):
    """Tap 0 writing straight into the input gradient equals zero-filling
    it and adding every tap."""
    rng = np.random.default_rng(11)
    lead = (n,) if members else ()
    x = nn.Tensor(rng.standard_normal((n, c_in, 40)), requires_grad=True)
    w = rng.standard_normal(lead + (c_out, c_in, 3))
    out = F.conv1d(x, nn.Tensor(w), padding=padding)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)
    padded = (n, c_in, 40 + 2 * padding)
    want = _conv1d_input_grad_by_matmul(w, grad, padded, out.shape[2])
    assert_array_equal(x.grad, want[:, :, padding : padding + 40])


@pytest.mark.parametrize("shape,c_out,kernel,padding", CONV2D_SWEEP,
                         ids=["x".join(map(str, c[0])) + "-f%d-k%d-p%d" % c[1:]
                              for c in CONV2D_SWEEP])
def test_conv2d_input_grad_equals_fill_then_add(shape, c_out, kernel,
                                                padding):
    """The flat-shift scatter with tap 0 written in place equals the
    zero-filled buffer with every tap added."""
    rng = np.random.default_rng(12)
    x = nn.Tensor(rng.standard_normal(shape), requires_grad=True)
    w = rng.standard_normal((c_out, shape[1], kernel, kernel))
    out = F.conv2d(x, nn.Tensor(w), padding=padding)
    grad = rng.standard_normal(out.shape)
    out.backward(grad)

    n, c_in = shape[:2]
    h, wd = shape[2] + 2 * padding, shape[3] + 2 * padding
    h_out, w_out = out.shape[2:]
    span = (h_out - 1) * wd + w_out
    wide = np.zeros((n, c_out, h_out, wd))
    wide[:, :, :, :w_out] = grad
    g_flat = wide.reshape(n, c_out, h_out * wd)[:, :, :span]
    gx = np.zeros((n, c_in, h * wd))
    for i in range(kernel):
        for j in range(kernel):
            off = i * wd + j
            if c_out == 1:
                tap = np.multiply(g_flat, w[0, :, i, j][:, None])
            else:
                tap = np.matmul(w[:, :, i, j].T, g_flat)
            gx[:, :, off : off + span] += tap
    want = gx.reshape(n, c_in, h, wd)[:, :, padding : h - padding,
                                       padding : wd - padding]
    assert_array_equal(x.grad, want)


# ---------------------------------------------------------------------- #
# Guards: grad-free forwards keep no backward state, and the old scatter
# and gather kernels stay gone.


def _peak_bytes(build):
    """Peak bytes NumPy allocates while ``build()`` runs, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", ["relu", "max_pool1d", "max_pool2d"])
def test_grad_free_forwards_keep_no_mask(op):
    """Under no_grad a ReLU or max-pool allocates its output and nothing
    else; with grad it also keeps a mask (ReLU) or an offset map (pool),
    one byte per output element.  (A NumPy ufunc over strided views may
    add a transient 64 KiB buffer, well under the half byte per element
    allowed.)"""
    build = {
        "relu": lambda x: x.relu(),
        "max_pool1d": lambda x: F.max_pool1d(x, 2),
        "max_pool2d": lambda x: F.max_pool2d(x, 2),
    }[op]
    shape = (8, 4, 200, 200) if op == "max_pool2d" else (8, 16, 2000)
    data = np.random.default_rng(13).standard_normal(shape)
    with nn.no_grad():
        out, peak = _peak_bytes(lambda: build(nn.Tensor(data)))
    assert peak < out.data.nbytes + out.data.size // 2
    out, peak = _peak_bytes(
        lambda: build(nn.Tensor(data, requires_grad=True)))
    assert peak >= out.data.nbytes + out.data.size


class _NoArgmax(np.ndarray):
    """An array whose argmax method fails: catches ``a.argmax(...)``,
    which patching ``np.argmax`` would not."""

    def argmax(self, *args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("max pooling must not call argmax")


class _UfuncWithoutAt:
    """Stands in for ``np.add``: calls pass through, ``.at`` fails."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def at(self, *args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("must not scatter through np.add.at")


def _ban_gather_scatter(monkeypatch):
    def banned(name):
        def call(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("must not call np.%s" % name)
        return call

    for name in ("argmax", "take_along_axis", "put_along_axis"):
        monkeypatch.setattr(np, name, banned(name))
    monkeypatch.setattr(np, "add", _UfuncWithoutAt(np.add))


@pytest.mark.parametrize("pool,shape", [(F.max_pool1d, (8, 4, 41)),
                                        (F.max_pool2d, (2, 3, 9, 11))],
                         ids=["1d", "2d"])
def test_max_pool_does_not_gather_or_scatter(monkeypatch, pool, shape):
    _ban_gather_scatter(monkeypatch)
    x = nn.Tensor(np.zeros(shape), requires_grad=True)
    x.data = np.random.default_rng(14).standard_normal(shape).view(_NoArgmax)
    out = pool(x, 2)
    out.backward(np.ones(out.shape))
    assert x.grad is not None
    with nn.no_grad():
        pool(nn.Tensor(np.asarray(x.data)), 2)


@pytest.mark.parametrize("upsample,shape,size", [
    (F.upsample1d, (2, 3, 7), 15), (F.upsample2d, (1, 2, 5, 7), (11, 15)),
], ids=["1d", "2d"])
@pytest.mark.parametrize("factor", [2, 3])
def test_upsample_backward_does_not_scatter(monkeypatch, upsample, shape,
                                            size, factor):
    _ban_gather_scatter(monkeypatch)
    x = nn.Tensor(np.ones(shape), requires_grad=True)
    out = upsample(x, factor, size=size)
    out.backward(np.ones(out.shape))
    assert x.grad.sum() == out.size
