"""Structured autograd operations: convolutions, pooling, padding, softmax.

These primitives complete the :mod:`repro.nn` substrate.  conv1d dispatches
per kernel tap to BLAS GEMMs on strided views (no im2col materialisation:
each tap is a ``(C_out, C_in) @ (C_in, L_out)`` product accumulated in fixed
tap order), which profiles 2-4x faster than the previous im2col ``einsum``
formulation on the channel counts the paper's architectures use.  conv2d
runs the same per-tap GEMMs on the flattened row-major grid ("flat
shift"): tap ``(i, j)`` is a contiguous slice at offset ``i*W + j``, so each
tap is one GEMM over every output row at once, and the wrap-around columns
are cropped.  Backward passes scatter gradients back with strided in-place
adds.

Every op builds a replayable ``forward(out=None)`` closure (see
:mod:`repro.nn.tensor`): eager execution calls it once, the training tape
replays it with reused buffers — identical arithmetic either way.  That
includes the stochastic ops: :func:`dropout` and :func:`sampled_normal`
draw into closure-persistent buffers *from inside the closure*, so a
replayed epoch consumes the module's RNG stream exactly like an eager epoch
would (same draw order, same values) instead of replaying a stale constant,
and :func:`softmax` recomputes its max shift per replay rather than baking
it into the graph.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, _into, _record, as_tensor

__all__ = [
    "pad1d",
    "pad2d",
    "conv1d",
    "conv2d",
    "max_pool1d",
    "max_pool2d",
    "upsample1d",
    "upsample2d",
    "softmax",
    "dropout",
    "sampled_normal",
    "stable_kernels",
    "stable_kernels_active",
]

# --------------------------------------------------------------------- #
# Shape-stable kernel mode.
#
# The default conv1d forward accumulates per-tap GEMMs whose BLAS inner
# kernels may round the last few output positions differently depending on
# the *length* of the input (tail-block handling).  That is invisible to
# training, but the receptive-field-bounded tail forwards of
# repro.core.scoring answer reads from a window slice and promise the full
# forward's bits — which requires every output position's arithmetic to
# be independent of how long the forwarded array happens to be.  `stable_kernels()` switches conv1d to a per-tap accumulation with a
# fixed non-BLAS reduction order (slower, still vectorised); serving paths
# enter it around their forwards, training never pays for it.
#
# The flag is thread-local (like grad mode in .tensor): every serving
# forward enters the context on the thread that runs it — a drain runs on
# whichever frontend connection thread triggered it — while a fit training
# concurrently on another thread (a threaded ensemble member, say) keeps
# the default kernels.  The stable branch rounds differently (that is the
# point), so leaking it into a fit would make training results depend on
# drain timing and break fixed-seed determinism.

_STABLE_STATE = threading.local()


class stable_kernels:
    """Context manager: length-stable conv arithmetic (serving forwards).

    Re-entrant and per-thread."""

    def __enter__(self):
        _STABLE_STATE.depth = getattr(_STABLE_STATE, "depth", 0) + 1
        return self

    def __exit__(self, exc_type, exc, tb):
        _STABLE_STATE.depth -= 1
        return False


def stable_kernels_active():
    """Whether conv kernels are in length-stable mode on this thread."""
    return getattr(_STABLE_STATE, "depth", 0) > 0


def pad1d(x, padding):
    """Zero-pad the last axis of a ``(N, C, L)`` tensor by ``padding`` each side."""
    x = as_tensor(x)
    if padding == 0:
        return x
    n, c, length = x.data.shape

    def forward(out=None):
        # Hand-rolled instead of np.pad: this runs per conv call on the
        # serving hot path, where np.pad's argument normalisation dominates
        # small inputs.  On tape replay the reused buffer's padding columns
        # are already zero, so only the interior is rewritten.
        if out is None:
            out = np.zeros((n, c, length + 2 * padding))
        out[:, :, padding : padding + length] = x.data
        return out

    def backward(grad):
        if x.requires_grad:
            # View of the consumer's gradient: adopt, don't copy.
            x._accumulate_owned(grad[:, :, padding:-padding])

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def pad2d(x, padding):
    """Zero-pad the last two axes of a ``(N, C, H, W)`` tensor."""
    x = as_tensor(x)
    if padding == 0:
        return x
    p = padding
    n, c, h, w = x.data.shape

    def forward(out=None):
        if out is None:
            out = np.zeros((n, c, h + 2 * p, w + 2 * p))
        out[:, :, p : p + h, p : p + w] = x.data
        return out

    def backward(grad):
        if x.requires_grad:
            x._accumulate_owned(grad[:, :, p:-p, p:-p])

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def conv1d(x, weight, bias=None, padding=0):
    """1D convolution (stride 1).

    Parameters
    ----------
    x: Tensor ``(N, C_in, L)``
    weight: Tensor ``(C_out, C_in, K)``, or ``(M, C_out, C_in, K)`` with a
        leading member axis: row ``m`` of ``x`` (``N == M``) is convolved
        with member ``m``'s kernel.
    bias: optional Tensor ``(C_out,)``, or ``(M, C_out)`` with a member axis.
    padding: symmetric zero padding on the length axis.

    With a member axis, output slice ``m`` is bit-identical to
    ``conv1d(x[m:m+1], weight[m], bias[m])`` on both kernel paths: the
    per-tap GEMMs batch over members (``np.matmul`` computes each slice of
    a stacked product exactly like the 2D product), the stable path's
    per-position channel dot becomes ``einsum("mfc,mcl->mfl")``, and the
    single-channel branches run their serial form per slice.  This is how
    stacked ensemble members train and stacked detectors score (see
    :mod:`repro.nn.batched`).
    """
    x = pad1d(as_tensor(x), padding)
    weight = as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    n, c_in, length = x.shape
    c_out, c_in_w, k = weight.shape[-3:]
    members = weight.ndim == 4
    if members and weight.shape[0] != n:
        raise ValueError("member mismatch: %d input rows vs %d kernels"
                         % (n, weight.shape[0]))
    if c_in != c_in_w:
        raise ValueError("channel mismatch: %d vs %d" % (c_in, c_in_w))
    if length < k:
        raise ValueError("input length %d shorter than kernel %d" % (length, k))
    l_out = length - k + 1
    stable = stable_kernels_active()
    spec = "mfc,mcl->mfl" if members else "fc,ncl->nfl"
    scratch = [None]

    def forward(out=None):
        if stable:
            # Fixed-order accumulation: one non-BLAS kernel per tap, summed
            # tap-by-tap.  Every output position sees the exact same
            # floating-point operation sequence regardless of L, which is
            # what lets a tail-slice forward reproduce a full forward
            # bit-for-bit.  Routing the per-tap GEMMs here instead is NOT
            # an option: BLAS tail-block handling makes
            # np.matmul(W, X[:, :L1]) differ in its last few columns from
            # np.matmul(W, X)[:, :L1] (measured at the architectures'
            # shapes), so stable mode keeps einsum's per-position channel
            # dot and only streamlines the accumulation — out=/in-place
            # adds instead of a fresh array per tap, and a broadcast
            # multiply for the degenerate single-channel case (the
            # one-term channel "sum" is just a product), ~1.2-3x faster
            # and bit-equal to the previous tap-by-tap sum.
            if out is None:
                out = np.empty((n, c_out, l_out))
            tmp = scratch[0]
            if k > 1 and (tmp is None or tmp.shape != out.shape):
                tmp = scratch[0] = np.empty_like(out)
            for tap in range(k):
                dest = out if tap == 0 else tmp
                if c_in == 1:
                    np.multiply(x.data[:, :, tap : tap + l_out],
                                weight.data[..., 0, tap][..., None], out=dest)
                else:
                    np.einsum(spec, weight.data[..., tap],
                              x.data[:, :, tap : tap + l_out],
                              optimize=False, out=dest)
                if tap:
                    np.add(out, tmp, out=out)
            if bias is not None:
                out += bias.data[..., None]
            return out
        if c_in == 1:
            # Degenerate GEMM (inner dimension 1) is an outer product BLAS
            # handles poorly; the im2col einsum's broadcast path is ~7x
            # faster for single-channel inputs.  With a member axis it runs
            # per member slice, so each slice keeps the serial bits.
            cols = sliding_window_view(x.data, k, axis=2)
            if not members:
                result = np.einsum(  # repro: lint-ok[einsum-order] eager-only branch: stable=True takes the fixed-order tap loop above, so this never runs under stable_kernels()
                    "nclk,fck->nfl", cols, weight.data,
                    optimize=True, out=out)
            else:
                result = np.empty((n, c_out, l_out)) if out is None else out
                for i in range(n):
                    np.einsum(  # repro: lint-ok[einsum-order] eager-only branch, per member slice of the einsum above
                        "nclk,fck->nfl", cols[i : i + 1], weight.data[i],
                        optimize=True, out=result[i : i + 1])
            if bias is not None:
                result += bias.data[..., None]
            return result
        # Per-tap GEMM: (C_out, C_in) @ (C_in, L_out) on strided views of x
        # (BLAS handles the leading-dimension stride, no im2col copy),
        # accumulated in fixed tap order.
        if out is None:
            result = np.matmul(weight.data[..., 0], x.data[:, :, 0:l_out])
        else:
            result = np.matmul(weight.data[..., 0], x.data[:, :, 0:l_out],
                               out=out)
        tmp = scratch[0]
        if tmp is None or tmp.shape != result.shape:
            tmp = scratch[0] = np.empty_like(result)
        for tap in range(1, k):
            np.matmul(weight.data[..., tap], x.data[:, :, tap : tap + l_out],
                      out=tmp)
            np.add(result, tmp, out=result)
        if bias is not None:
            result += bias.data[..., None]
        return result

    parents = (x, weight) if bias is None else (x, weight, bias)
    gx_buf = [None]
    gtmp_buf = [None]

    def backward(grad):
        # grad: (N, C_out, L_out)
        if weight.requires_grad:
            # Per-tap GEMM: (C_out, L_out) @ (L_out, C_in) per tap — no
            # sliding-window materialisation (the previous im2col einsum
            # recomputed the window view here on every backward).
            gw = np.empty_like(weight.data)
            for tap in range(k):
                xt = x.data[:, :, tap : tap + l_out]
                if members:
                    # Slice m: grad[m] @ xt[m].T, the single-row branch.
                    np.matmul(grad, xt.transpose(0, 2, 1), out=gw[..., tap])
                elif n > 1:
                    np.einsum(  # repro: lint-ok[einsum-order] backward-only: stable_kernels() bit-equality is a forward contract, gradients tolerate order drift
                        "nfl,ncl->fc", grad, xt, optimize=True,
                        out=gw[:, :, tap])
                else:
                    np.matmul(grad[0], xt[0].T, out=gw[:, :, tap])
            weight._accumulate_owned(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=2 if members else (0, 2)))
        if x.requires_grad:
            gx = gx_buf[0]
            if gx is None or gx.shape != x.data.shape:
                gx = gx_buf[0] = np.zeros_like(x.data)
            else:
                gx.fill(0.0)
            tmp = gtmp_buf[0]
            if tmp is None or tmp.shape != (n, c_in, l_out):
                tmp = gtmp_buf[0] = np.empty((n, c_in, l_out))
            # Scatter each kernel tap back onto the input axis:
            # (C_in, C_out) @ (C_out, L_out) added into a strided slice.
            # C_out == 1 (the readout) makes that a K=1 outer product: a
            # broadcast multiply computes the same single products faster.
            for tap in range(k):
                if c_out == 1:
                    np.multiply(weight.data[..., 0, :, tap][..., None], grad,
                                out=tmp)
                else:
                    np.matmul(np.swapaxes(weight.data[..., tap], -1, -2),
                              grad, out=tmp)
                target = gx[:, :, tap : tap + l_out]
                np.add(target, tmp, out=target)
            # gx is this closure's scratch: untouched until the op's next
            # backward, so the parent can alias it instead of copying.
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), parents, backward)
    _record(out, forward)
    return out


def conv2d(x, weight, bias=None, padding=0):
    """2D convolution (stride 1).

    Parameters
    ----------
    x: Tensor ``(N, C_in, H, W)``
    weight: Tensor ``(C_out, C_in, KH, KW)``
    """
    x = pad2d(as_tensor(x), padding)
    weight = as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError("channel mismatch: %d vs %d" % (c_in, c_in_w))
    if h < kh or w < kw:
        raise ValueError("input %s smaller than kernel %s" % ((h, w), (kh, kw)))
    h_out, w_out = h - kh + 1, w - kw + 1
    # Flat shift: on the row-major (H, W) grid, tap (i, j) of output (r, c)
    # reads flat index r*W + c + (i*W + j).  Over the flat "wide" output
    # grid (H_out, W) every tap is then one contiguous slice of length
    # ``span``; the wrap columns c >= W_out mix neighbouring rows and are
    # cropped (forward) or held at zero (backward).
    span = (h_out - 1) * w + w_out
    offsets = [(i, j, i * w + j) for i in range(kh) for j in range(kw)]
    wide = [None]
    scratch = [None]

    def forward(out=None):
        # One (C_out, C_in) @ (C_in, span) GEMM per tap — batched over N
        # only, so the call count is kh*kw whatever H — accumulated in
        # fixed tap order.  C_in == 1 makes it an outer product, which a
        # broadcast multiply does faster than a K=1 GEMM.
        acc = wide[0]
        if acc is None:
            acc = wide[0] = np.empty((n, c_out, h_out, w))
            scratch[0] = np.empty((n, c_out, span))
        tmp = scratch[0]
        acc_flat = acc.reshape(n, c_out, h_out * w)[:, :, :span]
        xf = x.data.reshape(n, c_in, h * w)  # copies only a strided input
        for tap, (i, j, off) in enumerate(offsets):
            dest = acc_flat if tap == 0 else tmp
            if c_in == 1:
                np.multiply(xf[:, :, off : off + span],
                            weight.data[:, 0, i, j][:, None], out=dest)
            else:
                np.matmul(weight.data[:, :, i, j], xf[:, :, off : off + span],
                          out=dest)
            if tap:
                np.add(acc_flat, tmp, out=acc_flat)
        if out is None:
            out = np.empty((n, c_out, h_out, w_out))
        cropped = acc[:, :, :, :w_out]
        if bias is None:
            np.copyto(out, cropped)
        else:
            np.add(cropped, bias.data[None, :, None, None], out=out)
        return out

    parents = (x, weight) if bias is None else (x, weight, bias)
    gwide = [None]
    gx_buf = [None]
    gscratch = [None]

    def backward(grad):
        # Place grad once on the wide grid; its wrap columns stay zero from
        # allocation, so the garbage the forward cropped contributes nothing.
        g = gwide[0]
        if g is None:
            g = gwide[0] = np.zeros((n, c_out, h_out, w))
        g[:, :, :, :w_out] = grad
        g_flat = g.reshape(n, c_out, h_out * w)[:, :, :span]
        if weight.requires_grad:
            xf = x.data.reshape(n, c_in, h * w)
            # (C_out, span) @ (span, C_in) per tap, into a tap-major buffer
            # so every GEMM writes a contiguous (C_out, C_in) block.
            taps = np.empty((kh, kw, c_out, c_in))
            for i, j, off in offsets:
                xs = np.swapaxes(xf[:, :, off : off + span], -1, -2)
                if n == 1:
                    np.matmul(g_flat[0], xs[0], out=taps[i, j])
                else:
                    np.matmul(g_flat, xs).sum(axis=0, out=taps[i, j])
            weight._accumulate_owned(np.ascontiguousarray(
                taps.transpose(2, 3, 0, 1)))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx = gx_buf[0]
            if gx is None:
                gx = gx_buf[0] = np.zeros((n, c_in, h, w))
                gscratch[0] = np.empty((n, c_in, span))
            else:
                gx.fill(0.0)
            tmp = gscratch[0]
            gx_flat = gx.reshape(n, c_in, h * w)
            # One contiguous scatter-add per tap: (C_in, C_out) @ (C_out,
            # span), or a broadcast multiply when C_out == 1.
            for i, j, off in offsets:
                if c_out == 1:
                    np.multiply(g_flat, weight.data[0, :, i, j][:, None],
                                out=tmp)
                else:
                    np.matmul(weight.data[:, :, i, j].T, g_flat, out=tmp)
                target = gx_flat[:, :, off : off + span]
                np.add(target, tmp, out=target)
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), parents, backward)
    _record(out, forward)
    return out


def max_pool1d(x, kernel=2):
    """Max pooling on ``(N, C, L)`` with stride == kernel.

    Trailing elements that do not fill a window are dropped, matching the
    usual floor-mode pooling semantics.
    """
    x = as_tensor(x)
    n, c, length = x.shape
    l_out = length // kernel
    saved = [None]

    def forward(out=None):
        trimmed = x.data[:, :, : l_out * kernel].reshape(n, c, l_out, kernel)
        saved[0] = arg = trimmed.argmax(axis=3)
        result = np.take_along_axis(trimmed, arg[..., None], axis=3)[..., 0]
        return _into(out, result)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            view = gx[:, :, : l_out * kernel].reshape(n, c, l_out, kernel)
            np.put_along_axis(view, saved[0][..., None], grad[..., None], axis=3)
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def max_pool2d(x, kernel=2):
    """Max pooling on ``(N, C, H, W)`` with stride == kernel on both axes."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    h_out, w_out = h // kernel, w // kernel
    saved = [None]

    def forward(out=None):
        trimmed = x.data[:, :, : h_out * kernel, : w_out * kernel]
        windows = trimmed.reshape(n, c, h_out, kernel, w_out, kernel)
        windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h_out, w_out, -1
        )
        saved[0] = arg = windows.argmax(axis=4)
        result = np.take_along_axis(windows, arg[..., None], axis=4)[..., 0]
        return _into(out, result)

    def backward(grad):
        if x.requires_grad:
            arg = saved[0]
            gwin = np.zeros((n, c, h_out, w_out, kernel * kernel))
            np.put_along_axis(gwin, arg[..., None], grad[..., None], axis=4)
            gwin = gwin.reshape(n, c, h_out, w_out, kernel, kernel)
            gwin = gwin.transpose(0, 1, 2, 4, 3, 5).reshape(
                n, c, h_out * kernel, w_out * kernel
            )
            gx = np.zeros_like(x.data)
            gx[:, :, : h_out * kernel, : w_out * kernel] = gwin
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def upsample1d(x, factor=2, size=None):
    """Nearest-neighbour upsampling on the length axis of ``(N, C, L)``.

    If ``size`` is given the output is truncated or edge-padded to exactly
    that length, which lets decoders invert floor-mode pooling.
    """
    x = as_tensor(x)
    n, c, l_in = x.shape
    target = l_in * factor if size is None else size
    # Gather directly via the index map; an earlier version materialised
    # np.repeat(x, factor) first and immediately overwrote it with this
    # gather — tests/nn/test_functional_perf.py guards against that dead
    # allocation coming back.
    index = np.minimum(np.arange(target) // factor, l_in - 1)

    def forward(out=None):
        return np.take(x.data, index, axis=2, out=out)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            # Positions up to ``whole`` map to input cells in full groups of
            # ``factor``; summing each group replaces the np.add.at scatter.
            # For factor 2 (the only factor the architectures use) the
            # two-term group sum is bit-identical to sequential adds into a
            # zeroed buffer; the remainder loop keeps arbitrary factors and
            # the right-edge clamp exact.
            whole = min(target, l_in * factor) // factor * factor
            if whole and factor == 2:
                groups = grad[:, :, :whole].reshape(n, c, whole // factor, factor)
                gx[:, :, : whole // factor] = groups.sum(axis=3)
            elif whole:
                np.add.at(gx, (slice(None), slice(None), index[:whole]),
                          grad[:, :, :whole])
            for j in range(whole, target):
                gx[:, :, index[j]] += grad[:, :, j]
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def upsample2d(x, factor=2, size=None):
    """Nearest-neighbour upsampling on the last two axes of ``(N, C, H, W)``."""
    x = as_tensor(x)
    h, w = x.shape[2], x.shape[3]
    th, tw = (h * factor, w * factor) if size is None else size
    row = np.minimum(np.arange(th) // factor, h - 1)
    col = np.minimum(np.arange(tw) // factor, w - 1)

    def forward(out=None):
        return _into(out, x.data[:, :, row[:, None], col[None, :]])

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (slice(None), slice(None), row[:, None], col[None, :]), grad)
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def softmax(x, axis=-1):
    """Numerically-stable softmax as a single recorded primitive.

    The max shift, clip, exp, sum and divide all run inside one fixed-order
    ``forward(out=)`` closure that reads ``x.data`` live, so a recorded tape
    replays the shift with *current* data instead of a stale constant (the
    PR 5 composite formulation had to poison recordings for exactly that
    reason).  The eager values are unchanged: ``a - b`` is bitwise
    ``a + (-b)``, and the clip/exp/sum/divide sequence matches the old
    primitive chain.  The backward uses the closed form
    ``y * (g - sum(g * y))``, reading the live output buffer.
    """
    x = as_tensor(x)

    def forward(out=None):
        shift = x.data.max(axis=axis, keepdims=True)
        if out is None:
            out = np.subtract(x.data, shift)
        else:
            np.subtract(x.data, shift, out=out)
        np.clip(out, -700.0, 700.0, out=out)
        np.exp(out, out=out)
        denom = out.sum(axis=axis, keepdims=True)
        np.divide(out, denom, out=out)
        return out

    out_data = forward()

    def backward(grad):
        if x.requires_grad:
            inner = np.multiply(grad, out_data).sum(axis=axis, keepdims=True)
            x._accumulate_owned(np.multiply(np.subtract(grad, inner), out_data))

    out = Tensor._make(out_data, (x,), backward)
    _record(out, forward)
    return out


def dropout(x, p, rng, training=True):
    """Inverted dropout: zero with probability ``p`` and rescale by 1/(1-p).

    Tape-safe: the mask is drawn inside the recorded closure into
    closure-persistent buffers, pulling from the module's own generator —
    the recording's draw and every replayed epoch's redraw consume exactly
    the RNG stream positions an eager epoch would (one ``rng.random`` of
    ``x.shape`` per call, in op order), so taped and eager training see
    identical masks.  The mask arithmetic reproduces the previous
    ``(draws >= p) / (1 - p)`` bits: the 0/1 comparison result is scaled by
    the same precomputed ``1/(1-p)`` quotient.
    """
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    p = float(p)
    scale = 1.0 / (1.0 - p)
    buffers = [None, None]  # [raw draws, scaled mask]

    def forward(out=None):
        draw = buffers[0]
        if draw is None:
            draw = buffers[0] = rng.random(x.shape)
            buffers[1] = np.empty(x.shape)
        else:
            rng.random(out=draw)
        mask = buffers[1]
        np.greater_equal(draw, p, out=mask)
        mask *= scale
        return np.multiply(x.data, mask, out=out)

    def backward(grad):
        if x.requires_grad:
            x._accumulate_product(grad, buffers[1])

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def sampled_normal(shape, rng):
    """A standard-normal draw recorded as a replayable op (tape-safe).

    Equivalent to ``Tensor(rng.standard_normal(shape))`` — a graph constant
    with no gradient — except the draw happens *inside* the recorded
    closure: every replayed epoch redraws into the persistent output buffer
    from ``rng``, consuming the same stream positions an eager epoch would,
    instead of replaying one stale sample (the reparameterisation noise of
    the VAE baselines goes through here).
    """
    shape = tuple(int(s) for s in shape)

    def forward(out=None):
        if out is None:
            return rng.standard_normal(shape)
        rng.standard_normal(out=out)
        return out

    out = Tensor(forward())
    _record(out, forward)
    return out
