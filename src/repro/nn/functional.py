"""Structured autograd operations: convolutions, pooling, padding, softmax.

These primitives complete the :mod:`repro.nn` substrate.  conv1d dispatches
per kernel tap to BLAS GEMMs on strided views (no im2col materialisation:
each tap is a ``(C_out, C_in) @ (C_in, L_out)`` product accumulated in fixed
tap order), which profiles 2-4x faster than the previous im2col ``einsum``
formulation on the channel counts the paper's architectures use.  conv2d
runs the same per-tap GEMMs on the flattened row-major grid ("flat
shift"): tap ``(i, j)`` is a contiguous slice at offset ``i*W + j``, so each
tap is one GEMM over every output row at once, and the wrap-around columns
are cropped.  A single-channel conv1d input (C_in == 1) is instead one
``np.matmul`` of the kernel over a sliding-window view, for every row and
member at once.  Backward passes scatter gradients back with strided
in-place adds; tap 0 writes the input gradient directly, so only the tail
it leaves uncovered is zeroed.

The fit-path kernels avoid extra passes over their arrays, because at the
batched-ensemble shape (8 members x 2000 points) every pass is a trip to
memory.  Max pooling keeps a running ``np.maximum`` over the kernel's
strided offsets instead of argmax + gather, and its backward writes each
offset's strided slice once; upsampling's backward adds one strided view
per phase instead of an ``np.add.at`` scatter, in the scatter's order.  The
state a backward needs (ReLU masks, max-pool offset maps) is kept only
when the op is built with grad enabled and an input that requires grad,
so a grad-free serving replay pays one NumPy call per ReLU and per pool
offset.

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

from .tensor import Tensor, _into, _record, as_tensor, is_grad_enabled

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
    per-tap GEMMs and the single-channel window product batch over members
    (``np.matmul`` computes each slice of a stacked product exactly like
    the 2D product), the stable path's per-position channel dot becomes
    ``einsum("mfc,mcl->mfl")``, and its single-channel broadcast multiply
    takes the member axis as is.  This is how
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
            # Degenerate GEMM (inner dimension 1): instead, one np.matmul of
            # the (C_out, K) kernel over the (K, L_out) sliding windows of
            # every row, batched over rows and members alike.  The window
            # view is not BLAS-shaped, so NumPy's own matmul loop runs it:
            # ~2.5x faster than the per-member im2col einsum it replaced,
            # and bit-equal to it for C_out > 1.
            cols = sliding_window_view(x.data[:, 0], k, axis=-1)
            w = weight.data[..., 0, :]
            if out is None:
                result = np.matmul(w, np.swapaxes(cols, -1, -2))
            else:
                result = np.matmul(w, np.swapaxes(cols, -1, -2), out=out)
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
            if gx is None:
                gx = gx_buf[0] = np.empty_like(x.data)
                gtmp_buf[0] = np.empty((n, c_in, l_out))
            tmp = gtmp_buf[0]
            # Scatter each kernel tap back onto the input axis:
            # (C_in, C_out) @ (C_out, L_out) added into a strided slice.
            # C_out == 1 (the readout) makes that a K=1 outer product: a
            # broadcast multiply computes the same single products faster.
            # Tap 0 writes its slice directly and only the tail it leaves
            # uncovered is zeroed, instead of clearing all of gx first.
            gx[:, :, l_out:] = 0.0
            for tap in range(k):
                dest = gx[:, :, :l_out] if tap == 0 else tmp
                if c_out == 1:
                    np.multiply(weight.data[..., 0, :, tap][..., None], grad,
                                out=dest)
                else:
                    np.matmul(np.swapaxes(weight.data[..., tap], -1, -2),
                              grad, out=dest)
                if tap:
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
                gx = gx_buf[0] = np.empty((n, c_in, h, w))
                gscratch[0] = np.empty((n, c_in, span))
            tmp = gscratch[0]
            gx_flat = gx.reshape(n, c_in, h * w)
            # One contiguous scatter-add per tap: (C_in, C_out) @ (C_out,
            # span), or a broadcast multiply when C_out == 1.  Tap 0 (offset
            # 0) writes straight into gx; only the tail past its span is
            # zeroed.
            gx_flat[:, :, span:] = 0.0
            for tap, (i, j, off) in enumerate(offsets):
                dest = gx_flat[:, :, :span] if tap == 0 else tmp
                if c_out == 1:
                    np.multiply(g_flat, weight.data[0, :, i, j][:, None],
                                out=dest)
                else:
                    np.matmul(weight.data[:, :, i, j].T, g_flat, out=dest)
                if tap:
                    target = gx_flat[:, :, off : off + span]
                    np.add(target, tmp, out=target)
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), parents, backward)
    _record(out, forward)
    return out


def _max_pool(x, views, out_shape):
    """Max pooling over ``views(array)``: the kernel's strided offsets of an
    array, one strided view per offset in row-major order.

    The forward keeps a running ``np.maximum`` over the offsets.  When a
    backward can run (grad enabled and ``x`` requiring grad, decided when
    the op is built), it also keeps a map of the offset each output came
    from (uint8 for kernels up to 16x16): a strict ``>`` in offset order
    sends ties to the first offset, as ``argmax`` does.  The backward
    writes each offset's strided slice of the input gradient once:
    ``grad`` where the map names that offset, zero elsewhere.
    """
    track = is_grad_enabled() and x.requires_grad
    count = len(views(x.data))
    dtype = np.min_scalar_type(count - 1)
    # [offset map, 0/1 scratch of the same dtype, input gradient]
    scratch = [np.zeros(out_shape, dtype), np.empty(out_shape, dtype),
               None] if track else None

    def forward(out=None):
        taps = views(x.data)
        if out is None:
            out = np.empty(out_shape)
        np.copyto(out, taps[0])
        for t in range(1, count):
            if track:
                # Offsets only grow, so "t where taps[t] wins" is a maximum
                # of the map with hit * t (a masked copy is ~10x slower).
                offsets, hit = scratch[0], scratch[1]
                np.greater(taps[t], out, out=offsets if t == 1 else hit)
                if t > 1:
                    np.multiply(hit, t, out=hit)
                    np.maximum(offsets, hit, out=offsets)
            np.maximum(out, taps[t], out=out)
        return out

    def backward(grad):
        if x.requires_grad:
            offsets, hit, gx = scratch
            if gx is None:
                # Rows and columns no window covers never receive gradient.
                gx = scratch[2] = np.zeros_like(x.data)
            for t, target in enumerate(views(gx)):
                np.equal(offsets, t, out=hit)
                np.multiply(grad, hit, out=target)
            # gx is this closure's scratch, as in conv1d: adopt it.
            x._accumulate_owned(gx)

    out = Tensor._make(forward(), (x,), backward)
    _record(out, forward)
    return out


def max_pool1d(x, kernel=2):
    """Max pooling on ``(N, C, L)`` with stride == kernel.

    Trailing elements that do not fill a window are dropped, matching the
    usual floor-mode pooling semantics.
    """
    x = as_tensor(x)
    n, c, length = x.shape
    end = length // kernel * kernel

    def views(a):
        return [a[:, :, t:end:kernel] for t in range(kernel)]

    return _max_pool(x, views, (n, c, length // kernel))


def max_pool2d(x, kernel=2):
    """Max pooling on ``(N, C, H, W)`` with stride == kernel on both axes."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    rows, cols = h // kernel * kernel, w // kernel * kernel

    def views(a):
        return [a[:, :, i:rows:kernel, j:cols:kernel]
                for i in range(kernel) for j in range(kernel)]

    return _max_pool(x, views, (n, c, h // kernel, w // kernel))


def _upsample_phases(factor, n_in, n_out):
    """``(input slice, output slice)`` per phase of a nearest upsample of
    ``n_in`` cells to ``n_out`` by ``factor``: phase ``a`` copies input cell
    ``i`` to output cell ``factor*i + a``.  Phases past ``factor - 1`` exist
    only for the last input cell, the edge clamp of an ``n_out`` larger than
    ``factor*n_in``; a truncating ``n_out`` shortens the phases instead."""
    phases = []
    for a in range(max(factor, n_out - factor * (n_in - 1))):
        lo = 0 if a < factor else n_in - 1
        hi = min(n_in, (n_out - a + factor - 1) // factor)
        if hi > lo:
            phases.append((slice(lo, hi),
                           slice(factor * lo + a, factor * (hi - 1) + a + 1,
                                 factor)))
    return phases


def upsample1d(x, factor=2, size=None):
    """Nearest-neighbour upsampling on the length axis of ``(N, C, L)``.

    If ``size`` is given the output is truncated or edge-padded to exactly
    that length, which lets decoders invert floor-mode pooling.
    """
    x = as_tensor(x)
    l_in = x.shape[2]
    target = l_in * factor if size is None else size
    # Gather directly via the index map; an earlier version materialised
    # np.repeat(x, factor) first and immediately overwrote it with this
    # gather — tests/nn/test_functional_perf.py guards against that dead
    # allocation coming back.
    index = np.minimum(np.arange(target) // factor, l_in - 1)
    phases = _upsample_phases(factor, l_in, target)

    def forward(out=None):
        return np.take(x.data, index, axis=2, out=out)

    def backward(grad):
        if x.requires_grad:
            # The np.add.at scatter's sums, one strided add per phase (see
            # _upsample_phases): each input cell adds its copies' gradients
            # in output order, the right-edge clamp included.  ~10x faster
            # than summing factor-sized groups over a reshaped axis.
            gx = np.zeros_like(x.data)
            for cells, gcells in phases:
                dest = gx[:, :, cells]
                np.add(dest, grad[:, :, gcells], out=dest)
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
    row_phases = _upsample_phases(factor, h, th)
    col_phases = _upsample_phases(factor, w, tw)

    def forward(out=None):
        return _into(out, x.data[:, :, row[:, None], col[None, :]])

    def backward(grad):
        if x.requires_grad:
            # np.add.at's sums without its per-element dispatch: cell (i, j)
            # adds the gradient cells it was copied to in row-major order.
            # Adding one strided view per (row phase, column phase), in
            # row-major phase order, replays each cell's chain exactly.
            gx = np.zeros_like(x.data)
            for rows, grows in row_phases:
                for cols, gcols in col_phases:
                    target = gx[:, :, rows, cols]
                    np.add(target, grad[:, :, grows, gcols], out=target)
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
