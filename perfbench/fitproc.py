"""The train workload's fitting process.

Usage: ``python3 perfbench/fitproc.py SEED ROUNDS OUT_DIR [--check]
[--spans SPANS_JSON]``.

Prints ``ready`` once its inputs exist (the end of set-up), then fits
``ROUNDS`` rounds of the three paper configurations, each fit bracketed by
host-pace measurements (``pace.py``), writes ``OUT_DIR/rounds.json`` and
prints ``done``.  On SIGTERM
it saves the fitted RAE and RDAE into ``OUT_DIR`` and exits; with
``--spans`` the layer wrappers are installed first and the spans written
at exit.
"""

import json
import os
import signal
import sys
import threading
import time

#: ``repro.datasets.generate_syn`` scale giving 5000-point series.
SYN_SCALE = 2.5
ENSEMBLE_POINTS = 2000
ENSEMBLE_MEMBERS = 8
#: RDAE at paper defaults fits this many points in about two seconds.
RDAE_POINTS = 200


def inputs(seed):
    """The three fit inputs of a seed: (RAE series, labels), ensemble
    series, RDAE series — all cut from the paper's SYN generator."""
    from repro.datasets import generate_syn

    series = generate_syn(seed=seed, scale=SYN_SCALE, num_series=3).series
    return ((series[0].values, series[0].labels),
            series[1].values[:ENSEMBLE_POINTS], series[2].values[:RDAE_POINTS])


def fit_round(data, paces):
    """One round: paper-default RAE fit+score, batched ensemble, RDAE.

    ``paces`` holds the last :func:`perfbench.pace.measure`; one more is
    appended after each fit, so every fit is bracketed by two.
    """
    from repro.core import RAE, RDAE, RobustEnsemble
    from repro.metrics import pr_auc

    from perfbench.pace import factor, measure

    (values, labels), ensemble_values, rdae_values = data
    fit_s, paced_s = {}, {}

    def timed(key, fit):
        started = time.perf_counter()
        out = fit()
        fit_s[key] = time.perf_counter() - started
        paces.append(measure())
        paced_s[key] = fit_s[key] * factor(paces[-2], paces[-1])
        return out

    rae = RAE()
    scores = timed("rae_fit_s", lambda: rae.fit(values).score(values))
    ensemble = timed("ensemble_fit_s", lambda: RobustEnsemble(
        base="rae", n_members=ENSEMBLE_MEMBERS, jitter=False,
        compile="batched").fit(ensemble_values))
    rdae = timed("rdae_fit_s", lambda: RDAE().fit(rdae_values))
    iterations = {
        "rae": len(rae.epoch_seconds_),
        "ensemble": [len(m.epoch_seconds_) for m in ensemble.members_],
        "rdae": len(rdae.epoch_seconds_),
    }
    record = {
        "round_s": sum(fit_s.values()),
        "paced_round_s": sum(paced_s.values()),
        **fit_s,
        "paced": paced_s,
        "pr_auc": float(pr_auc(labels, scores)),
        "iterations": iterations,
        "admm_iterations": (iterations["rae"] + sum(iterations["ensemble"])
                            + iterations["rdae"]),
        "rae_iteration_ms": 1e3 * sum(rae.epoch_seconds_)
        / len(rae.epoch_seconds_),
        "rdae_iteration_ms": 1e3 * sum(rdae.epoch_seconds_)
        / len(rdae.epoch_seconds_),
        "ensemble_fallback": len(ensemble.compile_fallback_),
        "points": (values.shape[0] + ENSEMBLE_MEMBERS * ensemble_values.shape[0]
                   + rdae_values.shape[0]),
    }
    return record, rae, rdae


def tape_matches_eager(values):
    """A small RAE fit with and without tape compilation: bit-identical?"""
    import numpy as np
    from repro import nn
    from repro.core import RAE

    fits = []
    for enabled in (True, False):
        nn.tape.set_tape_enabled(enabled)
        try:
            detector = RAE(max_iterations=3).fit(values)
        finally:
            nn.tape.set_tape_enabled(True)
        fits.append((detector.score(values), detector.clean_))
    return all(np.array_equal(a, b) for a, b in zip(*fits))


def main(argv):
    seed, count, out_dir = int(argv[0]), int(argv[1]), argv[2]
    spans = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *__: stop.set())
    tracer = None
    if spans:
        from perfbench.trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    from repro.core import save_detector

    from perfbench.pace import measure

    data = inputs(seed)
    print("ready", flush=True)
    paces = [measure()]
    rounds = []
    for __ in range(count):
        record, rae, rdae = fit_round(data, paces)
        rounds.append(record)
    result = {"rounds": rounds, "first_pace": paces[0]}
    if "--check" in argv:
        result["tape_matches_eager"] = tape_matches_eager(data[0][0][:400])
    with open(os.path.join(out_dir, "rounds.json"), "w") as handle:
        json.dump(result, handle)
    print("done", flush=True)
    stop.wait()
    save_detector(rae, os.path.join(out_dir, "rae.npz"))
    save_detector(rdae, os.path.join(out_dir, "rdae.npz"))
    if tracer is not None:
        tracer.dump(spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
