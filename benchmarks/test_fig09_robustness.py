"""Fig. 9: robustness study — RAE vs N-RAE and RDAE vs N-RDAE.

Paper shape: each robust method outperforms its non-robust counterpart,
because even the few outliers in the training series pollute the plain AEs'
latent representations.  The gap widens with contamination, so the study
runs on a SYN variant with a heavier outlier ratio than S5.
"""

import pytest

from repro.datasets import load_dataset

from conftest import mean_scores

# Heavy sweep: excluded from tier-1 (`-m "not slow"` is the default);
# run with `pytest -m slow` or `pytest -m ""`.
pytestmark = pytest.mark.slow

PAIRS = [("RAE", "N-RAE"), ("RDAE", "N-RDAE")]


def run(dataset):
    out = {}
    for robust, plain in PAIRS:
        out[robust] = mean_scores(robust, dataset)
        out[plain] = mean_scores(plain, dataset)
    return out


@pytest.mark.benchmark(group="fig09")
def test_robust_vs_nonrobust(benchmark):
    dataset = load_dataset("SYN", seed=3, scale=0.15, outlier_ratio=0.10,
                           num_series=3)
    results = benchmark.pedantic(run, args=(dataset,), rounds=1, iterations=1)
    print()
    print("Fig. 9 — Robustness (SYN, phi=10%%): method  PR  ROC")
    for name, (pr, roc) in results.items():
        print("  %-7s %.3f  %.3f" % (name, pr, roc))
    for robust, plain in PAIRS:
        robust_roc = results[robust][1]
        plain_roc = results[plain][1]
        assert robust_roc >= plain_roc - 0.05, (
            "%s (%.3f) fell behind %s (%.3f)"
            % (robust, robust_roc, plain, plain_roc)
        )
