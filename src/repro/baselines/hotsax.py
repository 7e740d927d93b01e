"""HOT SAX (Keogh, Lin & Fu, ICDM 2005): discord discovery via SAX.

A related-work method of Section VI ("Keogh et al. define grammar rules
using symbolic representations"), provided as an optional extra detector.
Subsequences are discretised with Symbolic Aggregate approXimation; the
discord search orders outer-loop candidates by the rarity of their SAX word
(rare words first) and abandons inner loops early, the HOT SAX heuristic.
Scores are nearest-non-self-match distances, like the matrix profile.
"""

from __future__ import annotations

import numpy as np

from ..tsops import overlap_average, standardize
from .base import BaseDetector, as_series

__all__ = ["HotSAX", "sax_word", "paa"]


def paa(segment, n_pieces):
    """Piecewise Aggregate Approximation: mean of ``n_pieces`` equal chunks."""
    segment = np.asarray(segment, dtype=np.float64)
    edges = np.linspace(0, segment.size, n_pieces + 1).astype(int)
    return np.array([
        segment[lo:hi].mean() if hi > lo else segment[min(lo, segment.size - 1)]
        for lo, hi in zip(edges[:-1], edges[1:])
    ])


def sax_word(segment, n_pieces=4, alphabet=3):
    """SAX discretisation of one z-normalised subsequence into a word."""
    segment = np.asarray(segment, dtype=np.float64)
    std = segment.std()
    z = (segment - segment.mean()) / (std if std > 0 else 1.0)
    approx = paa(z, n_pieces)
    from scipy import stats as sp_stats  # loads on first use (~0.7 s)

    # Breakpoints split the standard normal into equiprobable regions.
    breakpoints = sp_stats.norm.ppf(np.linspace(0, 1, alphabet + 1)[1:-1])
    symbols = np.searchsorted(breakpoints, approx)
    return "".join(chr(ord("a") + s) for s in symbols)


class HotSAX(BaseDetector):
    """Discord detection with SAX-ordered search.

    Parameters
    ----------
    pattern_size: subsequence length.
    n_pieces / alphabet: SAX word geometry.
    """

    name = "HOTSAX"

    def __init__(self, pattern_size=20, n_pieces=4, alphabet=3):
        self.pattern_size = int(pattern_size)
        self.n_pieces = int(n_pieces)
        self.alphabet = int(alphabet)

    def fit(self, series):
        return self

    def _discord_distances(self, values):
        m = self.pattern_size
        n_sub = values.size - m + 1
        subsequences = np.lib.stride_tricks.sliding_window_view(values, m)
        # Z-normalise all subsequences once.
        means = subsequences.mean(axis=1, keepdims=True)
        stds = np.maximum(subsequences.std(axis=1, keepdims=True), 1e-9)
        normed = (subsequences - means) / stds

        words = [sax_word(values[i : i + m], self.n_pieces, self.alphabet)
                 for i in range(n_sub)]
        counts = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        # HOT SAX outer-loop order: rarest words first.
        order = sorted(range(n_sub), key=lambda i: counts[words[i]])

        exclusion = max(m // 2, 1)
        best_so_far = 0.0
        distances = np.zeros(n_sub)
        for i in order:
            # Inner loop: same-word neighbours first (likely close matches),
            # with early abandoning against the running discord threshold.
            same = [j for j in range(n_sub)
                    if words[j] == words[i] and abs(j - i) > exclusion]
            others = [j for j in range(n_sub)
                      if words[j] != words[i] and abs(j - i) > exclusion]
            nearest = np.inf
            for j in same + others:
                dist = float(np.linalg.norm(normed[i] - normed[j]))
                if dist < nearest:
                    nearest = dist
                    if nearest < best_so_far:
                        break  # cannot be the discord; abandon
            if np.isfinite(nearest):
                distances[i] = nearest
                best_so_far = max(best_so_far, nearest)
        return distances

    def score(self, series):
        arr = standardize(as_series(series))
        length, dims = arr.shape
        m = int(np.clip(self.pattern_size, 3, max(3, length // 3)))
        self.pattern_size, original = m, self.pattern_size
        try:
            scores = np.zeros(length)
            starts = np.arange(length - m + 1)
            for d in range(dims):
                distances = self._discord_distances(arr[:, d])
                per_position = np.repeat(distances[:, None], m, axis=1)
                scores += overlap_average(per_position, starts, m, length)
        finally:
            self.pattern_size = original
        return scores / dims
