"""Outlier-score threshold selection.

The paper sidesteps thresholding by reporting threshold-free AUCs, noting
that "choosing the threshold is non-trivial and calls for domain experts or
prior knowledge" (Section V-A).  Deployments still need a threshold; this
module provides the standard unsupervised choices:

* :func:`quantile_threshold` — flag the top ``q`` fraction;
* :func:`mad_threshold` — median + k * MAD, robust to the outliers' own
  influence on the score distribution;
* :func:`pot_threshold` — peaks-over-threshold: fit a generalized Pareto
  distribution to the score tail and place the threshold at a target risk
  level (Siffer et al., KDD 2017 — the SPOT estimator).
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantile_threshold", "mad_threshold", "pot_threshold",
           "apply_threshold"]


def quantile_threshold(scores, q=0.99):
    """Score value at quantile ``q`` — flags the top ``(1-q)`` fraction."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1), got %r" % q)
    return float(np.quantile(scores, q))


def mad_threshold(scores, k=5.0):
    """``median + k * MAD`` with the 1.4826 normal-consistency constant."""
    scores = np.asarray(scores, dtype=np.float64)
    median = float(np.median(scores))
    mad = float(np.median(np.abs(scores - median))) * 1.4826
    return median + k * max(mad, 1e-12)


def pot_threshold(scores, risk=1e-3, tail_fraction=0.1, trim=0.02):
    """Peaks-over-threshold via a generalized Pareto tail fit.

    Parameters
    ----------
    scores: outlier scores (larger = more anomalous).
    risk: target probability that a *normal* observation exceeds the
        returned threshold.
    tail_fraction: fraction of the largest scores used as tail excesses.
    trim: fraction of the most extreme scores excluded from the fit — the
        outliers we are hunting would otherwise inflate the fitted tail and
        push the threshold above themselves.

    Falls back to the empirical ``1 - risk`` quantile when the tail is too
    small or degenerate to fit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0.0 < risk < 1.0:
        raise ValueError("risk must be in (0, 1), got %r" % risk)
    n = scores.size
    anchor = float(np.quantile(scores, 1.0 - tail_fraction))
    cap = float(np.quantile(scores, 1.0 - trim)) if 0.0 < trim < 1.0 else np.inf
    excesses = scores[(scores > anchor) & (scores <= cap)] - anchor
    if excesses.size < 10 or np.ptp(excesses) <= 0:
        return float(np.quantile(scores, 1.0 - risk))
    from scipy import stats as sp_stats  # loads on first use (~0.7 s)

    shape, __, scale = sp_stats.genpareto.fit(excesses, floc=0.0)
    scale = max(scale, 1e-12)
    tail_prob = excesses.size / n
    if risk >= tail_prob:
        return float(np.quantile(scores, 1.0 - risk))
    # Invert the GPD survival function at the rescaled risk level.
    ratio = risk / tail_prob
    if abs(shape) < 1e-9:
        excess_q = -scale * np.log(ratio)
    else:
        excess_q = (scale / shape) * (ratio ** (-shape) - 1.0)
    return float(anchor + excess_q)


def apply_threshold(scores, threshold):
    """Binary predictions from scores and a threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return (scores > threshold).astype(int)
