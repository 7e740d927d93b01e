"""A contiguous-view ring buffer for streaming observations.

The buffer stores each row twice, ``capacity`` slots apart, so the window of
the most recent ``size`` rows is always a contiguous slice of the backing
array — ``view()`` is O(1) and copy-free, which lets the scoring paths hand
the live window straight to NumPy without re-assembling it per arrival.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RingBuffer"]


class RingBuffer:
    """Fixed-capacity FIFO of ``(dims,)`` observations with O(1) appends."""

    def __init__(self, capacity, dims=1):
        self.capacity = int(capacity)
        self.dims = int(dims)
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._data = np.zeros((2 * self.capacity, self.dims))
        self._total = 0

    def __len__(self):
        return min(self._total, self.capacity)

    @property
    def total(self):
        """Observations ever pushed (including ones already evicted)."""
        return self._total

    @property
    def full(self):
        return self._total >= self.capacity

    def append(self, obs):
        """Push one observation (scalar, ``(dims,)``, or ``(1, dims)``)."""
        row = np.asarray(obs, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.dims:
            raise ValueError("observation has %d dims, expected %d"
                             % (row.shape[0], self.dims))
        slot = self._total % self.capacity
        self._data[slot] = row
        self._data[slot + self.capacity] = row
        self._total += 1
        return self

    def extend(self, series):
        """Push every row of a ``(n, dims)`` (or ``(n,)``) chunk."""
        arr = np.asarray(series, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.dims:
            raise ValueError("chunk must be (n, %d), got %s"
                             % (self.dims, arr.shape))
        # Only the last `capacity` rows of a large chunk can survive.
        if arr.shape[0] >= self.capacity:
            skipped = arr.shape[0] - self.capacity
            self._total += skipped
            arr = arr[skipped:]
        self._write(self._total % self.capacity, arr)
        self._total += arr.shape[0]
        return self

    def _write(self, slot, arr):
        """Write ``arr`` (at most ``capacity`` rows) from ``slot`` on,
        wrapping, into both copies of each slot."""
        cap = self.capacity
        first = min(arr.shape[0], cap - slot)
        self._data[slot : slot + first] = arr[:first]
        self._data[slot + cap : slot + cap + first] = arr[:first]
        rest = arr.shape[0] - first
        if rest:
            self._data[:rest] = arr[first:]
            self._data[cap : cap + rest] = arr[first:]

    def checkpoint(self, n):
        """An undo point for a coming ``extend`` of ``n`` rows.

        Holds the current ``total`` and a copy of the ``min(n, capacity)``
        slots that extend overwrites — O(chunk), not O(window).  Every slot
        is stored twice, ``capacity`` apart, so those slots are one
        contiguous slice of the backing array even when they wrap.
        """
        slot = self._total % self.capacity
        count = min(int(n), self.capacity)
        return self._total, self._data[slot : slot + count].copy()

    def rewind(self, mark):
        """Undo every extend since :meth:`checkpoint` returned ``mark``,
        restoring the backing array bit for bit."""
        total, saved = mark
        self._write(total % self.capacity, saved)
        self._total = total
        return self

    def load(self, rows, total):
        """Reset to exactly the retained window of a live buffer.

        ``rows`` is the window content oldest-first (what :meth:`view`
        returned at save time) and ``total`` the observations the live
        buffer had ever seen.  The rows are written at the same slots the
        live buffer held them in, so a restored buffer is indistinguishable
        from one that never stopped — ``view``, ``total``, eviction order,
        and warmup accounting all line up.
        """
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or (arr.size and arr.shape[1] != self.dims):
            raise ValueError("rows must be (n, %d), got %s"
                             % (self.dims, arr.shape))
        total = int(total)
        size = arr.shape[0]
        if size != min(total, self.capacity):
            raise ValueError(
                "a buffer that saw %d observations retains %d rows, got %d"
                % (total, min(total, self.capacity), size)
            )
        self._data[:] = 0.0
        self._total = total
        if size:
            slots = (total - size + np.arange(size)) % self.capacity
            self._data[slots] = arr
            self._data[slots + self.capacity] = arr
        return self

    def view(self):
        """The current window, oldest-first, as a read-only ``(size, dims)`` view."""
        size = len(self)
        start = (self._total - size) % self.capacity
        out = self._data[start : start + size]
        out.flags.writeable = False
        return out
