"""Import budget: importing, fitting and serving load neither scipy nor networkx.

RAE and RDAE need only NumPy.  ``scipy.stats`` (~0.7 s to import) and
``networkx`` are imported inside the few functions that use them (HotSAX,
Series2Graph, ``pot_threshold`` and the t-tests), so a ``repro serve``
server or a fitting process does not pay for them at start-up.  Each case
runs in a fresh interpreter, since this test process has loaded both.
"""

import ast
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
REPORT = """
import sys as _sys
_sys.stderr.write("heavy modules: %r\\n" % sorted(
    {name.split(".")[0] for name in _sys.modules} & {"scipy", "networkx"}))
"""


def _heavy_modules_after(script, cwd, stdin=""):
    """Run ``script`` in a fresh interpreter; returns the top-level names of
    the heavy modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script) + REPORT],
        input=stdin, capture_output=True, text=True, env=env, cwd=str(cwd),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("heavy modules: "), proc.stderr
    return ast.literal_eval(last[len("heavy modules: "):])


def test_import_loads_neither(tmp_path):
    assert _heavy_modules_after("import repro, repro.cli\n", tmp_path) == []


def test_train_workload_calls_load_neither(tmp_path):
    """The train workload's calls, at tiny size."""
    script = """
    import numpy as np
    from repro.core import RAE, RDAE, RobustEnsemble, save_detector
    from repro.datasets import generate_syn
    from repro.metrics import pr_auc

    series = generate_syn(seed=0, scale=0.05, num_series=3).series
    values, labels = series[0].values, series[0].labels
    rae = RAE(max_iterations=2)
    scores = rae.fit(values).score(values)
    RobustEnsemble(base="rae", n_members=2, jitter=False, compile="batched",
                   max_iterations=2).fit(series[1].values)
    rdae = RDAE(max_outer=1, inner_iterations=1, series_iterations=1)
    rdae.fit(series[2].values[:60])
    assert np.isfinite(pr_auc(labels, scores))
    save_detector(rae, "rae.npz")
    save_detector(rdae, "rdae.npz")
    """
    assert _heavy_modules_after(script, tmp_path) == []
    assert {"rae.npz", "rdae.npz"} <= set(os.listdir(tmp_path))


def test_serve_run_and_restore_load_neither(tmp_path):
    """``repro serve`` over a short stdin feed, its state save and a
    ``StreamRouter.restore`` of that state."""
    import numpy as np

    from repro.core import RAE, save_detector

    t = np.arange(120)
    save_detector(RAE(max_iterations=2).fit(np.sin(t / 4.0)[:, None]),
                  tmp_path / "rae.npz")
    feed = "".join("%s,%.6f\n" % (sid, np.sin(i / 4.0))
                   for i in range(40) for sid in ("web", "db"))
    script = """
    from repro.cli import main
    from repro.serve import StreamRouter

    assert main(["serve", "--input", "-", "--model", "rae.npz",
                 "--window", "16", "--state-dir", "state"]) == 0
    router = StreamRouter.restore("state")
    assert sorted(router.streams()) == ["db", "web"]
    """
    assert _heavy_modules_after(script, tmp_path, stdin=feed) == []
