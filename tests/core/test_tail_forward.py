"""Receptive-field-bounded tail forwards: exactness, locality, fallbacks.

The tentpole contract of the serving refactor: a :class:`ScoringSession`
push that re-forwards only the window tail must be *bit-identical* to the
full re-forward it replaces, across every regime (growing window, sliding
window, aligned and misaligned chunk sizes), and the ``tail_context()``
each detector reports must be a sound locality bound — perturbing the last
arrival may only change scores within it.  Architectures without a bound
(FC ablations, the lagged-matrix path) must fall back transparently.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    RAE,
    RDAE,
    InferencePrograms,
    ScoringSession,
    batched_session_scores,
)
from repro.eval import available_methods, make_detector
from repro.stream import StreamScorer

SPEED_OVERRIDES = {
    "RAE": {"max_iterations": 3},
    "RDAE": {"window": 20, "max_outer": 1, "inner_iterations": 2,
             "series_iterations": 2},
    "N-RAE": {"epochs": 2},
    "N-RDAE": {"window": 20, "epochs": 2},
}


def make_series(seed, length=400):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 25)
            + 0.05 * rng.standard_normal(length))[:, None]


@pytest.fixture(scope="module")
def conv_rae():
    return RAE(max_iterations=3, kernels=16, num_layers=3,
               kernel_size=5).fit(make_series(0))


@pytest.fixture(scope="module")
def rdae_series():
    return RDAE(window=30, max_outer=1, inner_iterations=2,
                series_iterations=2).fit(make_series(1))


@pytest.fixture(scope="module")
def rdae_matrix():
    return RDAE(window=30, max_outer=1, inner_iterations=2,
                series_iterations=2, use_f2=False).fit(make_series(2))


# --------------------------- tail_context() --------------------------- #

def test_tail_context_values(conv_rae, rdae_series, rdae_matrix):
    assert isinstance(conv_rae.tail_context(), int)
    assert 0 < conv_rae.tail_context() < 200  # bounded and window-scale small
    assert isinstance(rdae_series.tail_context(), int)
    # f2 is a shallow conv transform: much tighter than the pooled RAE.
    assert rdae_series.tail_context() < conv_rae.tail_context()
    assert rdae_matrix.tail_context() is None  # Hankel spreads every arrival
    assert RAE(max_iterations=2, arch="fc").fit(
        make_series(3)).tail_context() is None


def test_tail_context_requires_fit():
    with pytest.raises(RuntimeError):
        RAE().tail_context()
    with pytest.raises(RuntimeError):
        RDAE().tail_context()


# ------------------- bit-identity against full forwards ---------------- #

@pytest.mark.parametrize("window", [64, 65, 128])
@pytest.mark.parametrize("chunks", [
    [1] * 40,                       # single pushes (period-misaligned half)
    [2] * 20,                       # aligned chunks
    [5, 1, 2, 1, 3, 7, 1, 1, 50, 1, 2, 1],  # mixed, incl. window-sized
])
def test_tail_scores_bit_identical_to_full(conv_rae, window, chunks):
    tail = ScoringSession(conv_rae, window=window).seed(make_series(4)[:40])
    full = ScoringSession(conv_rae, window=window,
                          tail_forward=False).seed(make_series(4)[:40])
    series = make_series(5, length=sum(chunks))
    index = 0
    for chunk in chunks:
        got = tail.extend(series[index:index + chunk])
        expected = full.extend(series[index:index + chunk])
        assert np.array_equal(got, expected)
        index += chunk
    # The full window vector must agree too (a full forward after tails).
    assert np.array_equal(tail.scores(), full.scores())


def test_rdae_series_tail_bit_identical(rdae_series):
    tail = ScoringSession(rdae_series, window=96)
    full = ScoringSession(rdae_series, window=96, tail_forward=False)
    series = make_series(6, length=200)
    for i in range(0, 200, 1):
        assert tail.push(series[i]) == full.push(series[i])
    assert np.array_equal(tail.scores(), full.scores())


def test_unbounded_architectures_fall_back(rdae_matrix):
    fc = RAE(max_iterations=2, arch="fc").fit(make_series(7))
    assert not ScoringSession(fc, window=32).tail_supported
    assert not ScoringSession(rdae_matrix, window=40).tail_supported
    # tail_forward=True on an unbounded architecture is a silent no-op.
    session = ScoringSession(fc, window=32)
    reference = ScoringSession(fc, window=32, tail_forward=False)
    series = make_series(8, length=60)
    assert np.array_equal(session.extend(series), reference.extend(series))


def test_last_scores_matches_scores_suffix(conv_rae):
    session = ScoringSession(conv_rae, window=64).seed(make_series(9)[:64])
    session.ingest(make_series(9)[64:70])
    tail = session.last_scores(6).copy()
    assert np.array_equal(tail, session.scores()[-6:])
    # Memoised: a second read with a fresh cache is the same object slice.
    assert np.array_equal(session.last_scores(3), tail[-3:])


def test_batched_tail_drain_matches_solo(conv_rae, rdae_series):
    """Grouped tail forwards == each session's solo tail path, bitwise."""
    detectors = [conv_rae, conv_rae, rdae_series, conv_rae]
    solo = [ScoringSession(d, window=64).seed(make_series(20 + i)[:64])
            for i, d in enumerate(detectors)]
    grouped = [ScoringSession(d, window=64).seed(make_series(20 + i)[:64])
               for i, d in enumerate(detectors)]
    for step in range(6):
        chunk_sizes = [1, 2, 1, 3]
        expected = []
        for i, session in enumerate(solo):
            chunk = make_series(30 + i)[step * 4:step * 4 + chunk_sizes[i]]
            expected.append(session.extend(chunk).copy())
        for i, session in enumerate(grouped):
            chunk = make_series(30 + i)[step * 4:step * 4 + chunk_sizes[i]]
            session.ingest(chunk)
        tails = batched_session_scores(grouped, tail=chunk_sizes)
        for got, want in zip(tails, expected):
            assert np.array_equal(got, want[-got.shape[0]:])


def test_batched_refresh_handles_duplicate_sessions(conv_rae):
    """The same session object listed twice, with different counts, gets
    exact scores for both, and the memo it is left with stays exact."""
    session = ScoringSession(conv_rae, window=64)
    reference = ScoringSession(conv_rae, window=64, tail_forward=False)
    history = make_series(16, length=80)
    session.ingest(history)
    session.scores()  # a full-window memo, about to go stale
    reference.ingest(history)
    fresh = make_series(17, length=4)
    for counts in ([4, 4], [2, 4], [4, 2], [64, 3]):
        session.ingest(fresh)
        reference.ingest(fresh)
        expected = reference.scores()
        got = batched_session_scores([session, session], tail=counts)
        for count, scores in zip(counts, got):
            assert np.array_equal(scores, expected[-count:])
        assert np.array_equal(session.last_scores(6), expected[-6:])
        assert np.array_equal(session.scores(), expected)


def test_state_dict_round_trip_resumes_bit_identically(conv_rae):
    """A restored session carries only its window and arrival count, and
    resumes tail forwards with identical scores."""
    live = StreamScorer(conv_rae, window=64)
    live.push_many(make_series(10, length=80))
    state = live.state_dict()
    assert set(state) == {"kind", "dims", "window", "total"}
    assert state["total"] == 80

    restored = StreamScorer(conv_rae, window=64).load_state_dict(state)
    assert np.array_equal(restored.rescore(), live.rescore())
    follow = make_series(11, length=20)
    for point in follow:
        assert restored.push(point) == live.push(point)


@pytest.mark.parametrize("name", ["conv_rae", "rdae_matrix"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_session_rejects_non_finite_rows_without_side_effects(request, name,
                                                              bad):
    """Used directly, a session refuses a NaN/inf row in ``extend``,
    ``push`` and ``seed`` before its ring changes; otherwise every later
    score would read NaN until the row left the window."""
    detector = request.getfixturevalue(name)
    history = make_series(12, length=40)
    session = ScoringSession(detector, window=64).seed(history)
    twin = ScoringSession(detector, window=64).seed(history)
    poisoned = make_series(13, length=5)
    poisoned[2, 0] = bad
    for call, arg in ((session.extend, [[bad]]), (session.push, [bad]),
                      (session.extend, poisoned), (session.seed, poisoned)):
        with pytest.raises(ValueError, match="must be finite"):
            call(arg)
        assert session.total == twin.total == 40
        assert np.array_equal(session._ring.view(), twin._ring.view())
    follow = make_series(14, length=4)
    scores = session.extend(follow)
    assert np.isfinite(scores).all()
    assert np.array_equal(scores, twin.extend(follow))


# ------------------- the one memo, under random operations ------------- #

def _memo_machine(detector, window):
    """Drive a tail-forward session and a ``tail_forward=False`` twin
    through the same random operations; every read must agree bit for bit
    with the twin, and a current memo must always equal the full forward
    of a session freshly loaded with the twin's window (an oracle with no
    memo history, so a defect the twin shares cannot hide)."""
    chunks = st.one_of(st.integers(1, 6), st.integers(window - 2, window + 3))
    seeds = st.integers(0, 2**16)

    def rows(n, seed):
        return np.random.default_rng(seed).standard_normal((n, 1))

    class MemoMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.tail = ScoringSession(detector, window=window,
                                       programs=InferencePrograms())
            self.full = ScoringSession(detector, window=window,
                                       tail_forward=False)
            self.saved = None

        def both(self):
            return (self.tail, self.full)

        def oracle(self):
            return ScoringSession(
                detector, window=window, tail_forward=False,
            ).load_state(np.asarray(self.full._ring.view()).copy(),
                         self.full.total).scores()

        @rule(n=chunks, seed=seeds)
        def ingest(self, n, seed):
            for session in self.both():
                session.ingest(rows(n, seed))

        @rule(n=chunks, seed=seeds)
        def extend(self, n, seed):
            got, want = (s.extend(rows(n, seed)) for s in self.both())
            assert np.array_equal(got, want)

        @rule(k=st.integers(0, window + 2))
        def last_scores(self, k):
            got, want = (s.last_scores(k) for s in self.both())
            assert np.array_equal(got, want)

        @rule()
        def scores(self):
            got, want = (s.scores() for s in self.both())
            assert np.array_equal(got, want)

        @rule(n=chunks, seed=seeds, k=st.integers(0, 8))
        def checkpoint_and_rewind(self, n, seed, k):
            # Read after the ingest so a memo past the undo point exists.
            for session in self.both():
                mark = session.checkpoint(n)
                session.ingest(rows(n, seed))
                session.last_scores(k)
                session.rewind(mark)

        @rule()
        def save(self):
            holder = StreamScorer(detector, window=window)
            holder._session = self.tail
            self.saved = (holder.state_dict(),
                          np.asarray(self.full._ring.view()).copy(),
                          self.full.total)

        @precondition(lambda self: self.saved is not None)
        @rule(catch_up=st.booleans(), seed=seeds)
        def restore(self, catch_up, seed):
            # Into the live sessions, whose memos are of a later state;
            # catching up with other arrivals returns to the same total.
            state, window_rows, total = self.saved
            gained = self.full.total - total
            holder = StreamScorer(detector, window=window)
            holder._session = self.tail
            holder.load_state_dict(state)
            self.full.load_state(window_rows, total)
            if catch_up and gained:
                self.ingest(gained, seed)

        @invariant()
        def memo_is_exact(self):
            assert self.tail.total == self.full.total
            assert len(self.tail) == len(self.full)
            memo = self.tail._memo
            if self.tail._memo_total == self.tail.total and memo.shape[0]:
                expected = self.oracle()
                assert np.array_equal(memo, expected[len(expected)
                                                     - memo.shape[0]:])

    return MemoMachine


@pytest.mark.parametrize("name,window", [("conv_rae", 96),
                                         ("rdae_series", 48),
                                         ("rdae_matrix", 72)])
def test_memo_matches_full_forward_twin_under_random_operations(
        request, name, window):
    machine = _memo_machine(request.getfixturevalue(name), window)
    run_state_machine_as_test(
        machine, settings=settings(max_examples=25, deadline=None,
                                   stateful_step_count=20),
    )


# ----------------- perturbation contract (all registry AEs) ------------ #

def _streaming_detectors():
    """Every registry method served through the warm session path."""
    names = []
    for name in available_methods():
        detector = make_detector(name, **SPEED_OVERRIDES.get(name, {}))
        if isinstance(detector, (RAE, RDAE)) and not getattr(
                detector, "transductive_only", False):
            names.append(name)
    return names


@pytest.mark.parametrize("method", _streaming_detectors())
def test_perturbation_stays_inside_tail_context(method):
    """Perturbing the last arrival only moves scores inside tail_context,
    and the tail-forward path equals the full re-forward bit for bit."""
    detector = make_detector(method, **SPEED_OVERRIDES.get(method, {}))
    detector.fit(make_series(12, length=200))
    context = detector.tail_context()

    window = make_series(13, length=96)
    bumped = window.copy()
    bumped[-1] += 4.0

    base = ScoringSession(detector, window=96, tail_forward=False)
    base.ingest(window)
    moved = ScoringSession(detector, window=96, tail_forward=False)
    moved.ingest(bumped)

    if context is None:
        # Unbounded architectures promise nothing about locality; the
        # session must simply refuse the tail path.
        assert not ScoringSession(detector, window=96).tail_supported
        return

    scores = base.scores()
    perturbed = moved.scores()
    # Scores strictly outside the reported tail context are bit-unchanged.
    assert np.array_equal(scores[:-context], perturbed[:-context])
    # ... and the perturbation is visible where it should be.
    assert scores[-1] != perturbed[-1]

    # Tail forwards reproduce the full re-forward exactly on both windows.
    for content in (window, bumped):
        tail = ScoringSession(detector, window=96)
        assert tail.tail_supported
        streamed = np.concatenate([
            tail.extend(content[:50]), tail.extend(content[50:])
        ])
        reference = ScoringSession(detector, window=96, tail_forward=False)
        expected = np.concatenate([
            reference.extend(content[:50]), reference.extend(content[50:])
        ])
        assert np.array_equal(streamed, expected)


# -------------------- rdae_matrix warm-up divergence -------------------- #

def test_rdae_matrix_warmup_lag_clamp_divergence(rdae_matrix):
    """Pin the documented warm-up behaviour of the lagged-matrix path.

    The session fixes its Hankel lag once, from the window *capacity*, and
    embeds every forward's window at that lag; ``score_new`` clamps from
    the *content length*.  While the ring is filling the two clamps
    disagree, so scores legitimately diverge — and must converge exactly
    to the documented agreement once the ring holds a full window.  The
    tail-forward refactor must not silently change either side.
    """
    capacity = 40
    session = ScoringSession(rdae_matrix, window=capacity)
    # Capacity-based clamp: fixed at construction, independent of content.
    assert session._lag == int(np.clip(rdae_matrix.window, 2,
                                       capacity // 2 - 1))

    filling = make_series(14, length=30)
    session.ingest(filling)
    one_shot_lag = int(np.clip(rdae_matrix.window, 2, len(filling) // 2 - 1))
    assert one_shot_lag != session._lag  # the clamps disagree while filling
    warm = session.scores()
    one_shot = rdae_matrix.score_new(filling)
    assert warm.shape == one_shot.shape
    assert not np.allclose(warm, one_shot)  # the documented divergence

    # Once the ring holds a full window the paths agree exactly.
    session.ingest(make_series(15, length=capacity))
    assert np.allclose(
        session.scores(),
        rdae_matrix.score_new(np.asarray(session._ring.view())
                              * rdae_matrix._scale_std
                              + rdae_matrix._scale_mean),
    )
