"""score_new: the streaming (train-once, score-unseen) deployment mode."""

import numpy as np
import pytest

from repro.core import RAE, RDAE
from repro.metrics import roc_auc


def make_stream(seed, length=240, period=24, spikes=((60, 5.0), (180, -5.0))):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = np.sin(2 * np.pi * t / period) + 0.05 * rng.standard_normal(length)
    labels = np.zeros(length, dtype=int)
    for pos, magnitude in spikes:
        values[pos] += magnitude
        labels[pos] = 1
    return values[:, None], labels


def test_rae_scores_unseen_series():
    train, __ = make_stream(seed=0, spikes=((40, 4.0),))
    test, labels = make_stream(seed=1)
    det = RAE(max_iterations=15).fit(train)
    scores = det.score_new(test)
    assert scores.shape == (len(test),)
    assert roc_auc(labels, scores) > 0.9


def test_rdae_scores_unseen_series():
    train, __ = make_stream(seed=2, spikes=((40, 4.0),))
    test, labels = make_stream(seed=3)
    det = RDAE(window=30, max_outer=2, inner_iterations=4,
               series_iterations=4).fit(train)
    scores = det.score_new(test)
    assert roc_auc(labels, scores) > 0.85


def test_rdae_score_new_without_f2():
    train, __ = make_stream(seed=4)
    test, labels = make_stream(seed=5)
    det = RDAE(window=30, max_outer=1, inner_iterations=4,
               series_iterations=4, use_f2=False).fit(train)
    scores = det.score_new(test)
    assert scores.shape == (len(test),)
    assert np.isfinite(scores).all()


def test_score_new_uses_training_scaler():
    """A shifted/scaled copy of the training series must still be scored in
    the training frame — mean shift shows up as anomaly mass, as it should
    for a detector monitoring a stationary process."""
    train, __ = make_stream(seed=6)
    det = RAE(max_iterations=10).fit(train)
    shifted = train + 100.0
    scores = det.score_new(shifted)
    baseline = det.score_new(train)
    assert scores.mean() > baseline.mean()


def test_score_new_requires_fit():
    with pytest.raises(RuntimeError):
        RAE().score_new(np.zeros((50, 1)))
    with pytest.raises(RuntimeError):
        RDAE().score_new(np.zeros((50, 1)))


def test_score_new_deterministic():
    train, __ = make_stream(seed=7)
    test, __ = make_stream(seed=8)
    det = RAE(max_iterations=5, seed=3).fit(train)
    assert np.allclose(det.score_new(test), det.score_new(test))


# ------------------- grouped session refresh (serve drains) -------------- #

def test_iter_key_batches_groups_and_chunks():
    from repro.core import iter_key_batches

    keys = ["a", "b", "a", "a", "b", "a"]
    batches = list(iter_key_batches(keys, batch_size=2))
    assert batches == [[0, 2], [3, 5], [1, 4]]
    # Order within a group is input order; batch_size=1 degenerates cleanly.
    assert list(iter_key_batches(keys, batch_size=10)) == [[0, 2, 3, 5], [1, 4]]


def test_batched_session_scores_matches_solo_sessions():
    """One grouped forward pass must reproduce each session's solo scores
    (same-detector same-shape sessions are the sharded-serving drain)."""
    from repro.core import ScoringSession, batched_session_scores

    train, __ = make_stream(seed=9)
    det = RAE(max_iterations=4).fit(train)
    chunks = [make_stream(seed=20 + i, length=60, spikes=((30, 4.0),))[0]
              for i in range(6)]

    solo = []
    for chunk in chunks:
        session = ScoringSession(det, window=64)
        session.ingest(chunk)
        solo.append(session.scores().copy())

    batched_sessions = []
    for chunk in chunks:
        session = ScoringSession(det, window=64)
        session.ingest(chunk)
        batched_sessions.append(session)
    refreshed = batched_session_scores(
        batched_sessions, tail=[64] * len(batched_sessions), batch_size=4
    )
    for got, expected in zip(refreshed, solo):
        assert np.allclose(got, expected)
    # The refresh installed the memo: scores() reads are now free.
    for session, got in zip(batched_sessions, refreshed):
        assert session._memo_total == session.total
        assert session.scores() is got


def test_batched_session_scores_mixed_shapes_and_warmup():
    """Different window fills group separately; still-warming sessions and
    lagged-matrix sessions fall back to their solo paths."""
    from repro.core import ScoringSession, batched_session_scores

    train, __ = make_stream(seed=10)
    rae = RAE(max_iterations=4).fit(train)
    rdae = RDAE(window=20, max_outer=1, inner_iterations=2,
                series_iterations=2, use_f2=False).fit(train)

    full = ScoringSession(rae, window=32)
    full.ingest(make_stream(seed=30, length=50, spikes=())[0])
    short = ScoringSession(rae, window=32)
    short.ingest(make_stream(seed=31, length=10, spikes=())[0])
    warming = ScoringSession(rae, window=32)
    warming.ingest(make_stream(seed=32, length=2, spikes=())[0][:1])
    lagged = ScoringSession(rdae, window=40)
    lagged.ingest(make_stream(seed=33, length=40, spikes=())[0])

    sessions = [full, short, warming, lagged]
    expected = []
    for seed, window, det, length in ((30, 32, rae, 50), (31, 32, rae, 10),
                                      (32, 32, rae, 1), (33, 40, rdae, 40)):
        ref = ScoringSession(det, window=window)
        ref.ingest(make_stream(seed=seed, length=max(length, 2),
                               spikes=())[0][:length])
        expected.append(ref.scores().copy())
    refreshed = batched_session_scores(sessions, tail=[32, 32, 32, 40])
    for got, ref in zip(refreshed, expected):
        assert got.shape == ref.shape
        assert np.allclose(got, ref)
    assert refreshed[2].shape == (1,) and refreshed[2][0] == 0.0
