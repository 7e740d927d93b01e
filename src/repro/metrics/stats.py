"""Statistical significance tests (the t-tests of Section V-B)."""

from __future__ import annotations

import numpy as np

__all__ = ["paired_t_test", "welch_t_test"]


def paired_t_test(sample_a, sample_b):
    """Paired two-sided t-test; returns ``(t_statistic, p_value)``.

    The paper reports p-values of the proposed methods against the baselines
    on per-dataset averages; pairs are matched by dataset.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    from scipy import stats as sp_stats  # loads on first use (~0.7 s)

    result = sp_stats.ttest_rel(a, b)
    return float(result.statistic), float(result.pvalue)


def welch_t_test(sample_a, sample_b):
    """Welch's unequal-variance t-test; returns ``(t_statistic, p_value)``."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    from scipy import stats as sp_stats

    result = sp_stats.ttest_ind(a, b, equal_var=False)
    return float(result.statistic), float(result.pvalue)
