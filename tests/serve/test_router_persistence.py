"""Shard recovery: a restored router must be indistinguishable from one
that never restarted — same per-stream scores on the same replayed
arrivals, same stats, same queue. (The ROADMAP's persistence-backed shard
recovery item.)"""

import json

import numpy as np
import pytest

from repro.api import DetectorSpec
from repro.core import RAE
from repro.eval import make_detector
from repro.serve import StreamRouter


@pytest.fixture(scope="module")
def history():
    rng = np.random.default_rng(21)
    t = np.arange(320)
    values = np.sin(2 * np.pi * t / 24) + 0.05 * rng.standard_normal(320)
    return values[:, None]


@pytest.fixture(scope="module")
def fitted_rae(history):
    return RAE(max_iterations=4).fit(history)


def _feed(router, chunks):
    for stream_id, chunk in chunks.items():
        router.submit_many(stream_id, chunk)
    return router.drain()


def test_restored_router_matches_never_restarted(fitted_rae, history,
                                                 tmp_path):
    """The acceptance scenario: save mid-stream, restore, replay the same
    arrivals into both routers — per-stream scores must match exactly."""
    live = StreamRouter(fitted_rae, window=48, min_points=2)
    for stream_id in ("web", "db"):
        live.add_stream(stream_id).seed(history[-48:])
    _feed(live, {"web": history[:40] + 0.01, "db": history[20:70]})

    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")

    assert restored.streams() == live.streams()
    replay = {"web": history[100:130] + 0.4, "db": history[150:190]}
    live_scores = _feed(live, dict(replay))
    restored_scores = _feed(restored, dict(replay))
    for stream_id in live_scores:
        assert np.array_equal(live_scores[stream_id],
                              restored_scores[stream_id]), stream_id


def test_restore_preserves_stats_and_counters(fitted_rae, history, tmp_path):
    live = StreamRouter(fitted_rae, window=32)
    live.add_stream("a").seed(history[-32:])
    _feed(live, {"a": history[:25]})
    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")
    assert restored.stats() == live.stats()
    assert restored.stream("a").total == live.stream("a").total
    assert len(restored.stream("a")) == len(live.stream("a"))


def test_queued_arrivals_survive_restart(fitted_rae, history, tmp_path):
    live = StreamRouter(fitted_rae, window=32)
    live.add_stream("q").seed(history[-32:])
    live.submit_many("q", history[:12])  # queued, never drained
    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")
    assert restored.stats()["queue_depth"] == 12
    assert np.array_equal(live.drain()["q"], restored.drain()["q"])


def test_spec_only_restore_for_stateless_fit_detector(history, tmp_path):
    """Ring-path shards whose detector has no hidden fitted state (MP's fit
    is a no-op) round-trip through the spec alone — no weights needed."""
    live = StreamRouter(make_detector("MP", pattern_size=10), window=30,
                        mode="score")
    live.add_stream("m").seed(history[:30])
    _feed(live, {"m": history[30:60]})
    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")
    assert restored.stream("m").mode == "score"
    a = _feed(live, {"m": history[60:85]})["m"]
    b = _feed(restored, {"m": history[60:85]})["m"]
    assert np.array_equal(a, b)


def test_restore_rebuilds_how_it_was_built(fitted_rae, history, tmp_path):
    """The sidecar records method + params, not just weights: the restored
    default detector carries the original configuration."""
    live = StreamRouter(fitted_rae, window=40)
    live.add_stream("s").seed(history[-40:])
    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")
    assert isinstance(restored.detector, RAE)
    assert restored.detector.max_iterations == fitted_rae.max_iterations
    assert DetectorSpec.from_detector(restored.detector) == \
        DetectorSpec.from_detector(fitted_rae)
    # Shards share ONE restored instance, preserving grouped drains.
    assert restored.stream("s").detector is restored.detector


def test_saved_weights_win_over_override(fitted_rae, history, tmp_path):
    """The retained session windows were scaled by the SAVED detector;
    substituting another would silently change scores, so weights beat the
    detector= override (which exists for spec-only saves)."""
    live = StreamRouter(fitted_rae, window=40)
    live.add_stream("s").seed(history[-40:])
    _feed(live, {"s": history[:30]})
    live.save(tmp_path / "state")
    replacement = RAE(max_iterations=2, kernels=8).fit(history[::2])
    restored = StreamRouter.restore(tmp_path / "state", detector=replacement)
    assert restored.detector is not replacement
    a = _feed(live, {"s": history[60:80]})["s"]
    b = _feed(restored, {"s": history[60:80]})["s"]
    assert np.array_equal(a, b)


def test_per_stream_unpersistable_score_shard_rejected_at_save(history,
                                                               tmp_path):
    """A weightless score-mode detector on a NON-default stream has no
    restore-time remedy (the override only replaces the default), so save
    must refuse instead of writing an unrecoverable state."""
    router = StreamRouter(make_detector("MP"), window=32, mode="score")
    lof = make_detector("LOF", n_neighbors=5).fit(history)
    router.add_stream("ok")
    router.add_stream("dead-end", detector=lof)
    with pytest.raises(ValueError, match="no restore\\(\\) override"):
        router.save(tmp_path / "state")


def test_unpersistable_detector_raises_on_save(history, tmp_path):
    class Foreign:
        def fit(self, series):
            return self

        def score(self, series):
            return np.zeros(len(series))

    router = StreamRouter(Foreign(), window=16, mode="score")
    router.add_stream("f")
    with pytest.raises(ValueError, match="cannot persist"):
        router.save(tmp_path / "state")


def test_spec_only_restore_of_stateful_score_shard_fails_fast(history,
                                                              tmp_path):
    """A LOF shard scores through fitted state that cannot be persisted;
    restore must reject it up front with the remedy, not hand back a
    router that crashes on its first drain."""
    live = StreamRouter(make_detector("LOF", n_neighbors=5).fit(history),
                        window=32)
    live.add_stream("l").seed(history[-32:])
    _feed(live, {"l": history[:20]})
    live.save(tmp_path / "state")
    with pytest.raises(ValueError, match="rebuilt unfitted from its spec"):
        StreamRouter.restore(tmp_path / "state")
    # The documented remedy — a fitted override — resumes scoring.
    override = make_detector("LOF", n_neighbors=5).fit(history)
    restored = StreamRouter.restore(tmp_path / "state", detector=override)
    a = _feed(live, {"l": history[40:60]})["l"]
    b = _feed(restored, {"l": history[40:60]})["l"]
    assert np.array_equal(a, b)


def test_refit_shard_restores_spec_only(history, tmp_path):
    """Transductive shards refit a clone per window, so an unfitted spec
    rebuild resumes exactly."""
    live = StreamRouter(make_detector("RSSA", max_iter=15), window=24)
    live.add_stream("r")
    assert live.stream("r").mode == "refit"
    _feed(live, {"r": history[:24]})
    live.save(tmp_path / "state")
    restored = StreamRouter.restore(tmp_path / "state")
    a = _feed(live, {"r": history[24:36]})["r"]
    b = _feed(restored, {"r": history[24:36]})["r"]
    assert np.array_equal(a, b)


def test_router_accepts_specs(history):
    router = StreamRouter(DetectorSpec("MP"), window=30, mode="score")
    router.add_stream("x", detector="EMA")
    assert router.detector.name == "MP"
    assert router.stream("x").detector.name == "EMA"
    router.submit_many("x", history[:30])
    scores = router.drain()["x"]
    assert scores.shape == (30,)


def test_restore_ignores_old_saves_score_cache(fitted_rae, history,
                                              tmp_path):
    """Older saves also carry each session's score cache (``s%d::cache``
    arrays and a per-stream ``cache_total``).  Restore must ignore it: the
    retained window alone resumes scoring bit-identically to a
    never-restarted router, whatever the stale cache holds."""
    live = StreamRouter(fitted_rae, window=48)
    _feed(live, {"a": history[:60], "b": history[60:120]})
    state = tmp_path / "state"
    live.save(state)

    manifest_path = state / "router.json"
    manifest = json.loads(manifest_path.read_text())
    with np.load(state / "state.npz") as blob:
        arrays = dict(blob)
    for i, entry in enumerate(manifest["streams"]):
        window = arrays["s%d::window" % i]
        arrays["s%d::cache" % i] = np.full(window.shape[0], 1e6)
        entry["cache_total"] = entry["total"]
    np.savez(state / "state.npz", **arrays)
    manifest_path.write_text(json.dumps(manifest, indent=2))

    restored = StreamRouter.restore(state)
    for sid in ("a", "b"):
        assert np.array_equal(restored.stream(sid).rescore(),
                              live.stream(sid).rescore())
    for step in range(3):
        chunk = {"a": history[120 + 3 * step:123 + 3 * step],
                 "b": history[140 + step:141 + step]}
        expected, got = _feed(live, chunk), _feed(restored, chunk)
        assert list(expected) == list(got)
        for sid in expected:
            assert np.array_equal(expected[sid], got[sid])


def test_restore_ignores_saved_parallel_drain_backend(fitted_rae, history,
                                                      tmp_path):
    """Routers saved while parallel drain backends existed carry their
    execution config; restore must ignore it, drain serially and score
    bit-identically to a never-restarted router."""
    live = StreamRouter(fitted_rae, window=48)
    _feed(live, {"a": history[:60], "b": history[60:120]})
    live.submit_many("a", history[120:123])  # still queued at save time
    state = tmp_path / "state"
    live.save(state)
    manifest_path = state / "router.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update({"drain_backend": "process", "workers": 2})
    manifest_path.write_text(json.dumps(manifest, indent=2))

    restored = StreamRouter.restore(state)
    assert restored.stats() == live.stats()
    for step in range(3):
        chunk = {"a": history[130 + 4 * step:134 + 4 * step],
                 "b": history[160 + 4 * step:164 + 4 * step]}
        expected, got = _feed(live, chunk), _feed(restored, chunk)
        assert list(expected) == list(got)
        for sid in expected:
            assert np.array_equal(expected[sid], got[sid])
    # Everything but the program cache, whose programs recompile once.
    after, reference = restored.stats(), live.stats()
    del after["program_cache"], reference["program_cache"]
    assert after == reference
    # A re-save writes the current, backend-free config.
    restored.save(tmp_path / "resaved")
    config = json.loads((tmp_path / "resaved" / "router.json").read_text())
    assert "drain_backend" not in config["config"]
