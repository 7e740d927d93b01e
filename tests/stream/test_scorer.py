"""StreamScorer: modes, warmup, bounded windows, and scoring equivalence."""

import numpy as np
import pytest

from repro.baselines import EMADetector, LOF
from repro.core import RAE, RDAE, ScoringSession
from repro.stream import StreamScorer


def make_series(seed, length=200, spike=None):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = np.sin(2 * np.pi * t / 25) + 0.05 * rng.standard_normal(length)
    if spike is not None:
        values[spike] += 6.0
    return values[:, None]


@pytest.fixture(scope="module")
def fitted_rae():
    return RAE(max_iterations=5).fit(make_series(0))


def test_auto_mode_selection(fitted_rae):
    assert StreamScorer(fitted_rae, window=32).mode == "score_new"
    assert StreamScorer(EMADetector(), window=32).mode == "score"
    from repro.baselines import RSSADetector
    from repro.core import NRAE, NRDAE

    # Detectors whose score() ignores its argument must be refitted on the
    # live window, never served their frozen training scores.
    assert StreamScorer(RSSADetector(), window=32).mode == "refit"
    assert StreamScorer(NRAE(), window=32).mode == "refit"
    assert StreamScorer(NRDAE(), window=32).mode == "refit"


def test_transductive_only_detector_reacts_to_live_outliers():
    """Regression: N-RAE's score() returns fit-time scores regardless of
    input; streamed through auto mode it must still notice a live spike."""
    from repro.core import NRAE

    train = make_series(20, length=120)
    det = NRAE(epochs=3).fit(train)
    scorer = StreamScorer(det, window=48)
    scorer.push_many(make_series(21, length=60))
    calm = scorer.push(0.5)
    spiked = scorer.push(9.0)
    assert spiked > 10 * max(calm, 1e-12)


def test_invalid_arguments(fitted_rae):
    with pytest.raises(ValueError):
        StreamScorer(fitted_rae, window=1)
    with pytest.raises(ValueError):
        StreamScorer(fitted_rae, mode="bogus")


def test_warmup_scores_are_zero(fitted_rae):
    scorer = StreamScorer(fitted_rae, window=32, min_points=4)
    assert scorer.push(0.1) == 0.0
    assert scorer.push(0.2) == 0.0


def test_unfitted_session_detector_raises():
    with pytest.raises(RuntimeError):
        StreamScorer(RAE(), window=32).push(0.0)


@pytest.mark.parametrize("path", ["session", "ring"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_arrivals_are_rejected_without_side_effects(
        fitted_rae, path, bad):
    """One NaN/inf would make every later score NaN until it left the
    window; each public entry point refuses it before ingesting anything,
    so the scorer goes on exactly as a twin that never saw it."""
    detector = fitted_rae if path == "session" else EMADetector()
    history = make_series(30, length=40)
    scorer = StreamScorer(detector, window=64).seed(history)
    twin = StreamScorer(detector, window=64).seed(history)
    poisoned = make_series(31, length=5)
    poisoned[2, 0] = bad
    for call, arg in ((scorer.push, bad), (scorer.push_many, poisoned),
                      (scorer.seed, poisoned)):
        with pytest.raises(ValueError, match="must be finite"):
            call(arg)
        assert scorer.total == twin.total == 40
    for point in make_series(32, length=4):
        assert scorer.push(point) == twin.push(point)


def test_spike_scores_highest(fitted_rae):
    live = make_series(3, spike=120)
    scorer = StreamScorer(fitted_rae, window=64)
    scores = np.array([scorer.push(x) for x in live])
    assert int(np.argmax(scores)) == 120


def test_session_matches_score_new_on_full_window(fitted_rae):
    live = make_series(4)
    scorer = StreamScorer(fitted_rae, window=len(live))
    scorer.push_many(live)
    assert np.allclose(scorer.rescore(), fitted_rae.score_new(live))


def test_window_bounds_context(fitted_rae):
    """Once the window slides, only the retained context feeds the score."""
    live = make_series(5, length=300)
    scorer = StreamScorer(fitted_rae, window=50)
    scorer.push_many(live)
    assert len(scorer) == 50
    assert scorer.total == 300
    # Scoring the retained window directly must agree with the session.
    assert np.allclose(scorer.rescore(), fitted_rae.score_new(live[-50:]))


def test_score_mode_uses_fitted_state():
    series = make_series(6)
    det = LOF(n_neighbors=10).fit(series)
    scorer = StreamScorer(det, window=len(series))
    streamed = scorer.push_many(series)
    assert np.allclose(streamed, det.score(series))


def test_refit_mode_clones_per_window():
    from repro.baselines import RSSADetector

    series = make_series(7, length=80)
    det = RSSADetector(max_iter=10)
    scorer = StreamScorer(det, window=80, mode="refit")
    streamed = scorer.push_many(series)
    fresh = RSSADetector(max_iter=10).fit_score(series)
    assert np.allclose(streamed, fresh)
    # The wrapped detector itself must stay untouched by streaming.
    assert det.result_ is None


def test_seed_fills_context_without_scoring(fitted_rae):
    history = make_series(13, length=500)
    seeded = StreamScorer(fitted_rae, window=64).seed(history)
    assert len(seeded) == 64 and seeded.total == 500
    # Scores after seeding equal scores after pushing the same history.
    pushed = StreamScorer(fitted_rae, window=64)
    pushed.push_many(history[-64:])
    assert np.allclose(seeded.rescore(), pushed.rescore())


def test_seed_matrix_path_matches_pushed_state():
    series = make_series(14, length=200)
    det = RDAE(window=20, max_outer=1, inner_iterations=2,
               series_iterations=2, use_f2=False).fit(series)
    seeded = StreamScorer(det, window=80).seed(series)
    pushed = StreamScorer(det, window=80)
    pushed.push_many(series[-80:])
    live = make_series(15, length=5)
    assert np.allclose(seeded.push_many(live), pushed.push_many(live))


def test_push_many_oversized_chunk_zeroes_evicted_points(fitted_rae):
    """A chunk larger than the window (the seeding idiom) reports 0.0 for
    its self-evicted prefix and real scores for the retained tail."""
    live = make_series(12, length=100)
    scorer = StreamScorer(fitted_rae, window=40)
    out = scorer.push_many(live)
    assert np.allclose(out[:60], 0.0)
    assert np.allclose(out[60:], fitted_rae.score_new(live[-40:]))


def test_push_many_chunks_match_running_window(fitted_rae):
    live = make_series(8, length=90)
    scorer = StreamScorer(fitted_rae, window=40)
    out = np.concatenate([scorer.push_many(live[:50]),
                          scorer.push_many(live[50:70]),
                          scorer.push_many(live[70:])])
    assert out.shape == (90,)
    assert np.isfinite(out).all()


def test_multivariate_stream():
    rng = np.random.default_rng(9)
    series = np.stack([np.sin(np.arange(150) / 7.0),
                       np.cos(np.arange(150) / 11.0)], axis=1)
    series += 0.05 * rng.standard_normal(series.shape)
    det = RAE(max_iterations=4).fit(series)
    scorer = StreamScorer(det, window=60)
    scores = scorer.push_many(series)
    assert scores.shape == (150,)
    assert np.isfinite(scores).all()


def test_matrix_path_cold_start_point_by_point():
    """Regression: streaming an f2-less RDAE from an empty window must
    survive the arrival that emits the first lagged column (K=1 would pool
    to width zero inside the inner AE)."""
    series = make_series(16, length=120)
    det = RDAE(window=20, max_outer=1, inner_iterations=2,
               series_iterations=2, use_f2=False).fit(series)
    scorer = StreamScorer(det, window=60)
    scores = [scorer.push(x) for x in series[:30]]
    assert np.isfinite(scores).all()
    # Warmup (fewer than lag+1 arrivals) reports zero evidence, then real
    # scores take over.
    assert scores[-1] != 0.0 or any(s != 0.0 for s in scores)


def test_session_rdae_matrix_path_incremental_consistency():
    series = make_series(10, length=160)
    det = RDAE(window=20, max_outer=1, inner_iterations=2,
               series_iterations=2, use_f2=False).fit(series)
    session = ScoringSession(det, window=len(series))
    session.extend(series)
    assert np.allclose(session.scores(), det.score_new(series))


def test_min_points_agrees_across_paths_and_chunkings(fitted_rae):
    """Regression: the session path keyed its warmup threshold on the
    window-capped session size plus the incoming chunk while the ring path
    keyed on the window-capped ring size, so with min_points above the
    window the ring path zeroed forever while the session path scored (and
    whether it scored depended on the chunk size).  Both paths now count
    total arrivals: the first min_points-1 arrivals are the warmup, the
    chunk containing arrival #min_points scores its retained points."""
    series = make_series(17, length=20)
    ring_det = LOF(n_neighbors=3).fit(series)
    for detector in (fitted_rae, ring_det):
        point_wise = StreamScorer(detector, window=4, min_points=8)
        chunked = StreamScorer(detector, window=4, min_points=8)
        out_points = np.array([point_wise.push(x) for x in series])
        out_chunks = np.concatenate([chunked.push_many(series[:3]),
                                     chunked.push_many(series[3:6]),
                                     chunked.push_many(series[6:])])
        # Warmup arrivals score 0.0 regardless of path or chunking.
        assert np.allclose(out_points[:7], 0.0)
        assert np.allclose(out_chunks[:7], 0.0)
        # Scoring starts at arrival #min_points in both paths, even though
        # min_points exceeds the window capacity.
        assert np.all(out_points[7:] != 0.0)
        assert np.all(out_chunks[-4:] != 0.0)  # the final chunk's window


def test_warmup_chunks_run_no_forward_pass(fitted_rae):
    """Regression: warmup chunks on the session path used to pay a full
    forward pass whose scores were discarded; they must now only seed."""
    scorer = StreamScorer(fitted_rae, window=32, min_points=10)
    scorer.push_many(make_series(18, length=4))
    scorer.push_many(make_series(18, length=4))
    assert scorer._session._memo_total == -1  # no forward ever ran
    assert scorer.total == 8
    out = scorer.push_many(make_series(18, length=4))  # crosses: scores now
    assert scorer._session._memo_total == scorer._session.total
    assert np.all(out != 0.0)


def test_session_rdae_matrix_matches_one_shot_once_ring_full():
    """The documented lag-clamp caveat, pinned: the matrix path fixes its
    lag from the window *capacity*, so once the ring holds a full window
    the session scores equal one-shot score_new of the retained window."""
    series = make_series(19, length=200)
    det = RDAE(window=20, max_outer=1, inner_iterations=2,
               series_iterations=2, use_f2=False).fit(series)
    window = 80
    session = ScoringSession(det, window=window)
    for point in series:
        session.push(point)
    assert len(session) == window
    assert np.allclose(session.scores(), det.score_new(series[-window:]))


def test_session_caches_forward_between_reads(fitted_rae):
    session = ScoringSession(fitted_rae, window=64)
    session.extend(make_series(11, length=64))
    first = session.scores()
    assert session.scores() is first  # memoised until the next arrival
    session.push(0.5)
    assert session.scores() is not first
