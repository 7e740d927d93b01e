"""Fig. 13: effect of the number of hidden CNN layers (S5).

Paper shape: accuracy is insensitive to the layer count (slightly better
with more layers) — random choices of this hyperparameter stay safe.
"""

import pytest

from repro.eval import render_sweep

from conftest import mean_scores

# Heavy sweep: excluded from tier-1 (`-m "not slow"` is the default);
# run with `pytest -m slow` or `pytest -m ""`.
pytestmark = pytest.mark.slow

LAYER_COUNTS = [3, 5, 7]


def sweep(s5):
    pr = {"RAE": {}, "RDAE": {}}
    roc = {"RAE": {}, "RDAE": {}}
    for layers in LAYER_COUNTS:
        pr["RAE"][layers], roc["RAE"][layers] = mean_scores(
            "RAE", s5, num_layers=layers
        )
        pr["RDAE"][layers], roc["RDAE"][layers] = mean_scores(
            "RDAE", s5, num_layers=layers
        )
    return pr, roc


@pytest.mark.benchmark(group="fig13")
def test_layer_sweep(benchmark, s5):
    pr, roc = benchmark.pedantic(sweep, args=(s5,), rounds=1, iterations=1)
    print()
    print(render_sweep(pr, "layers", title="Fig. 13a — PR vs #layers (S5)"))
    print(render_sweep(roc, "layers", title="Fig. 13b — ROC vs #layers (S5)"))
    for method in ("RAE", "RDAE"):
        values = list(roc[method].values())
        # Paper shape: insensitive — the spread across settings stays small.
        assert max(values) - min(values) < 0.25, (
            "%s too sensitive to layer count: %s" % (method, roc[method])
        )
