"""Series2Graph (Boniol & Palpanas, PVLDB 2020), simplified.

A related-work method of Section VI: the series is embedded into a graph
whose nodes are quantised subsequence shapes and whose weighted edges record
observed transitions between consecutive shapes; subsequences whose
node/edge path is rarely travelled are anomalies.  This implementation
follows the published pipeline — subsequence embedding (PCA to a low-d
shape space), node creation by quantisation, edge accumulation, and a
normality score from edge weights and node degrees — at reduced fidelity.
"""

from __future__ import annotations

import numpy as np

from ..tsops import overlap_average, standardize
from .base import BaseDetector, as_series

__all__ = ["Series2Graph"]


class Series2Graph(BaseDetector):
    """Graph-embedding discord detector.

    Parameters
    ----------
    pattern_size: subsequence length (the paper's input length ℓ).
    n_bins: quantisation resolution of the 2D shape space (nodes ≤ n_bins²).
    """

    name = "S2G"

    def __init__(self, pattern_size=20, n_bins=8):
        self.pattern_size = int(pattern_size)
        self.n_bins = int(n_bins)
        self.graph_ = None

    def fit(self, series):
        return self

    def _shape_space(self, values, m):
        subsequences = np.lib.stride_tricks.sliding_window_view(values, m)
        means = subsequences.mean(axis=1, keepdims=True)
        stds = np.maximum(subsequences.std(axis=1, keepdims=True), 1e-9)
        normed = (subsequences - means) / stds
        # Project z-normalised shapes to their top-2 principal components.
        centred = normed - normed.mean(axis=0, keepdims=True)
        __, __, vt = np.linalg.svd(centred, full_matrices=False)
        return centred @ vt[:2].T  # (n_sub, 2)

    def _quantise(self, points):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        cells = np.floor((points - lo) / span * (self.n_bins - 1e-9)).astype(int)
        return [tuple(row) for row in cells]

    def score(self, series):
        import networkx as nx  # loads on first use

        arr = standardize(as_series(series))
        length, dims = arr.shape
        m = int(np.clip(self.pattern_size, 4, max(4, length // 3)))
        scores = np.zeros(length)
        for d in range(dims):
            points = self._shape_space(arr[:, d], m)
            nodes = self._quantise(points)
            graph = nx.DiGraph()
            for a, b in zip(nodes[:-1], nodes[1:]):
                if graph.has_edge(a, b):
                    graph[a][b]["weight"] += 1
                else:
                    graph.add_edge(a, b, weight=1)
            self.graph_ = graph
            # Normality of a transition: edge weight scaled by source degree
            # (well-travelled paths through well-connected shapes = normal).
            n_sub = len(nodes)
            normality = np.zeros(max(n_sub - 1, 1))
            for i, (a, b) in enumerate(zip(nodes[:-1], nodes[1:])):
                weight = graph[a][b]["weight"]
                degree = graph.degree(a, weight="weight")
                normality[i] = weight * (degree - 1)
            anomaly = normality.max() - normality
            per_position = np.repeat(anomaly[:, None], m, axis=1)
            starts = np.arange(anomaly.size)
            scores += overlap_average(per_position, starts, m, length)
        return scores / dims
