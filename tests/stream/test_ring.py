"""RingBuffer: contiguous views, eviction, and chunked appends."""

import numpy as np
import pytest

from repro.stream import RingBuffer


def test_fills_then_evicts_oldest():
    ring = RingBuffer(4, 1)
    for i in range(6):
        ring.append([float(i)])
    assert len(ring) == 4
    assert ring.total == 6
    assert np.allclose(ring.view()[:, 0], [2, 3, 4, 5])


def test_view_is_contiguous_and_ordered_across_wraps():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((57, 3))
    ring = RingBuffer(10, 3)
    for i, row in enumerate(data):
        ring.append(row)
        view = ring.view()
        assert view.flags.c_contiguous
        expected = data[max(0, i - 9) : i + 1]
        assert np.allclose(view, expected)


def test_extend_matches_repeated_append():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((33, 2))
    one = RingBuffer(7, 2)
    two = RingBuffer(7, 2)
    for row in data:
        one.append(row)
    # Mixed chunk sizes, including one larger than the capacity.
    two.extend(data[:20]).extend(data[20:25]).extend(data[25:])
    assert one.total == two.total
    assert np.allclose(one.view(), two.view())


def test_oversized_chunk_keeps_only_tail():
    data = np.arange(30, dtype=float)[:, None]
    ring = RingBuffer(5, 1)
    ring.extend(data)
    assert np.allclose(ring.view()[:, 0], [25, 26, 27, 28, 29])
    assert ring.total == 30


def test_view_is_read_only():
    ring = RingBuffer(3, 1)
    ring.append([1.0])
    with pytest.raises(ValueError):
        ring.view()[0, 0] = 9.0


def test_scalar_and_1d_inputs():
    ring = RingBuffer(3, 1)
    ring.append(1.5)
    ring.extend(np.array([2.5, 3.5]))
    assert np.allclose(ring.view()[:, 0], [1.5, 2.5, 3.5])


def test_dimension_mismatch_raises():
    ring = RingBuffer(3, 2)
    with pytest.raises(ValueError):
        ring.append([1.0])
    with pytest.raises(ValueError):
        ring.extend(np.zeros((4, 3)))


@pytest.mark.parametrize("before,n", [(0, 3), (5, 3), (6, 4), (9, 2),
                                      (4, 7), (11, 20)])
def test_rewind_restores_the_buffer_bit_for_bit(before, n):
    ring = RingBuffer(7, 2)
    ring.extend(np.arange(2.0 * before).reshape(before, 2))
    data, total = ring._data.copy(), ring.total
    mark = ring.checkpoint(n)
    assert mark[1].shape[0] == min(n, 7)   # O(chunk), not O(window)
    ring.extend(-np.arange(2.0 * n).reshape(n, 2) - 1.0)
    ring.rewind(mark)
    assert ring.total == total
    assert np.array_equal(ring._data, data)
