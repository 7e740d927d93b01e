"""Cross-length bit-equality of the stable conv path.

``stable_kernels()`` promises that every output position of a conv forward
sees the exact same floating-point operation sequence regardless of the
input length — the property that lets a tail-slice forward reproduce the
corresponding tail of a full forward bit for bit (the serving session's
contract, see ``repro.core.scoring``).

This suite guards the promise at the kernel level, after the stable path's
accumulation was streamlined (in-place tap adds, broadcast multiply for
single-channel inputs): the fast form must stay bit-equal across lengths.
The per-tap GEMM kernels that speed up *training* forwards must never be
routed here — BLAS tail-block handling makes ``W @ X[:, :L1]`` differ in
its last columns from ``(W @ X)[:, :L1]`` at these architectures' shapes
(measured), which is exactly the instability this mode exists to exclude.
"""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F

# (c_in, c_out, k) spanning both stable branches: the single-channel
# broadcast-multiply path and the multi-channel per-tap einsum path, at
# kernel sizes the paper sweeps.
SHAPES = [(1, 8, 3), (1, 4, 7), (4, 8, 5), (8, 2, 3)]


@pytest.mark.parametrize("c_in,c_out,k", SHAPES)
def test_stable_conv1d_tail_slice_bit_equal_across_lengths(c_in, c_out, k):
    rng = np.random.default_rng(0)
    weight = nn.Parameter(rng.standard_normal((c_out, c_in, k)))
    bias = nn.Parameter(rng.standard_normal(c_out))
    full = rng.standard_normal((1, c_in, 400))
    with nn.no_grad(), F.stable_kernels():
        y_full = F.conv1d(nn.Tensor(full), weight, bias).data
        for length in (k, 57, 100, 399):
            tail = np.ascontiguousarray(full[:, :, -length:])
            y_tail = F.conv1d(nn.Tensor(tail), weight, bias).data
            want = y_full[:, :, y_full.shape[2] - y_tail.shape[2]:]
            assert np.array_equal(y_tail, want), length


@pytest.mark.parametrize("c_in,c_out,k", SHAPES)
def test_stable_conv1d_bit_equal_to_tap_by_tap_reference(c_in, c_out, k):
    """The streamlined accumulation (out=/in-place adds, broadcast multiply
    for c_in == 1) is a pure speedup of the original tap-by-tap sum — the
    values must not move at all."""
    rng = np.random.default_rng(1)
    weight = rng.standard_normal((c_out, c_in, k))
    bias = rng.standard_normal(c_out)
    x = rng.standard_normal((2, c_in, 211))
    l_out = x.shape[2] - k + 1
    reference = np.zeros((2, c_out, l_out))
    for tap in range(k):
        reference += np.einsum("fc,ncl->nfl", weight[:, :, tap],
                               x[:, :, tap:tap + l_out], optimize=False)
    reference += bias[None, :, None]
    with nn.no_grad(), F.stable_kernels():
        got = F.conv1d(nn.Tensor(x), nn.Parameter(weight),
                       nn.Parameter(bias)).data
    assert np.array_equal(got, reference)


# Member-axis convs: weight (M, F, C, K), bias (M, F), input (M, C, L),
# row m convolved with member m's kernel — the single-channel and the
# multi-channel stable branches.
MEMBER_SHAPES = [(1, 8, 3), (4, 8, 5)]
MEMBERS = 3


def member_params(rng, c_in, c_out, k):
    weight = nn.Parameter(rng.standard_normal((MEMBERS, c_out, c_in, k)))
    bias = nn.Parameter(rng.standard_normal((MEMBERS, c_out)))
    return weight, bias


@pytest.mark.parametrize("c_in,c_out,k", MEMBER_SHAPES)
def test_stable_member_conv1d_tail_slice_bit_equal_across_lengths(c_in, c_out,
                                                                  k):
    rng = np.random.default_rng(2)
    weight, bias = member_params(rng, c_in, c_out, k)
    full = rng.standard_normal((MEMBERS, c_in, 400))
    with nn.no_grad(), F.stable_kernels():
        y_full = F.conv1d(nn.Tensor(full), weight, bias).data
        for length in (k, 57, 100, 399):
            tail = np.ascontiguousarray(full[:, :, -length:])
            y_tail = F.conv1d(nn.Tensor(tail), weight, bias).data
            want = y_full[:, :, y_full.shape[2] - y_tail.shape[2]:]
            assert np.array_equal(y_tail, want), length


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "fast"])
@pytest.mark.parametrize("c_in,c_out,k", MEMBER_SHAPES)
def test_member_conv1d_slice_equals_serial_conv_with_member_kernel(
        c_in, c_out, k, stable):
    rng = np.random.default_rng(3)
    weight, bias = member_params(rng, c_in, c_out, k)
    x = rng.standard_normal((MEMBERS, c_in, 211))
    mode = F.stable_kernels if stable else contextlib.nullcontext
    with nn.no_grad(), mode():
        got = F.conv1d(nn.Tensor(x), weight, bias, padding=1).data
        for m in range(MEMBERS):
            want = F.conv1d(nn.Tensor(x[m:m + 1]), nn.Tensor(weight.data[m]),
                            nn.Tensor(bias.data[m]), padding=1).data
            assert np.array_equal(got[m], want[0]), m


def test_member_conv1d_rejects_mismatched_member_count():
    weight, bias = member_params(np.random.default_rng(4), 2, 3, 3)
    with pytest.raises(ValueError, match="member mismatch"):
        F.conv1d(nn.Tensor(np.zeros((MEMBERS - 1, 2, 20))), weight, bias)
