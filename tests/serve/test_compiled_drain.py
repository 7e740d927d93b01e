"""Compiled-vs-eager drain contract, cross-detector grouping, counters.

The compiled inference path (grad-free score tapes + stacked-weight
programs, cached per router in :class:`repro.core.InferencePrograms`)
promises **bit-identical** drains: for every registry RAE/RDAE method,
per-stream scores AND per-stream stats must match the eager drain exactly
— including when each stream holds its *own* fitted detector of the same
spec, which is precisely the case the architecture-fingerprint group keys
exist for.  A weight hot-swap that desynchronises a cached program must be
detected (invalidation counter), and a botched hot-swap inside a
cross-detector group must fail only its own stream while groupmates score.
"""

import numpy as np
import pytest

from repro.core import (
    InferencePrograms,
    architecture_fingerprint,
    batched_session_scores,
    drain_group_key,
)
from repro.core.scoring import ScoringSession
from repro.eval import make_detector
from repro.nn import tape as nntape
from repro.serve import DrainError, StreamRouter


def training_series(length=140, dims=1, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 25)[:, None] * np.ones((1, dims))
    return base + 0.1 * rng.standard_normal((length, dims))


# Registry RAE/RDAE methods, trimmed for test speed.  The N- variants are
# transductive-only and serve in refit mode (no sessions, so the compiled
# inference path never engages — their drains exercise the *training*
# tape's bit-identity instead); only RAE and RDAE score through sessions.
REGISTRY_CASES = {
    "RAE": {"max_iterations": 2},
    "RDAE": {"window": 20, "max_outer": 1, "inner_iterations": 2,
             "series_iterations": 2},
    "N-RAE": {"epochs": 2},
    "N-RDAE": {"window": 20, "epochs": 1},
}


def fitted_fleet(name, count=3):
    series = training_series()
    return [
        make_detector(name, seed=seed, **REGISTRY_CASES[name]).fit(series)
        for seed in range(count)
    ]


def serve_chunks(seed=1, chunks=3, rows=30, dims=1):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, dims)) for __ in range(chunks)]


def run_scenario(detectors, compiled):
    """Drain the same burst sequence through a fresh router; returns
    (per-drain results, final stats)."""
    previous = nntape.set_tape_enabled(compiled)
    try:
        router = StreamRouter(window=64, min_points=2)
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
        drained = []
        for chunk in serve_chunks():
            for index in range(len(detectors)):
                router.submit_many("s%d" % index, chunk + 0.01 * index)
            drained.append(
                {sid: scores.copy()
                 for sid, scores in router.drain().items()}
            )
        return drained, router.stats()
    finally:
        nntape.set_tape_enabled(previous)


def assert_identical_runs(eager, compiled):
    eager_drains, eager_stats = eager
    compiled_drains, compiled_stats = compiled
    for a, b in zip(eager_drains, compiled_drains):
        assert set(a) == set(b)
        for sid in a:
            assert np.array_equal(a[sid], b[sid]), sid
    # Per-stream stats are part of the contract, not just scores.
    assert eager_stats["per_stream"] == compiled_stats["per_stream"]
    assert eager_stats["scored"] == compiled_stats["scored"]
    assert eager_stats["drains"] == compiled_stats["drains"]


@pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
def test_registry_method_compiled_drain_bit_equal(name):
    detectors = fitted_fleet(name)
    eager = run_scenario(detectors, compiled=False)
    compiled = run_scenario(detectors, compiled=True)
    assert_identical_runs(eager, compiled)
    cache = compiled[1]["program_cache"]
    assert eager[1]["program_cache"] == {
        "hits": 0, "misses": 0, "invalidations": 0,
    }
    if name in ("RAE", "RDAE"):  # session-served: compiled path engages
        assert cache["misses"] + cache["hits"] > 0


# Drains run serially in-process: "serial" is the only backend.
@pytest.mark.parametrize("backend", ["serial"])
def test_compiled_drain_bit_equal_across_backends(backend):
    detectors = fitted_fleet("RAE")
    eager = run_scenario(detectors, compiled=False)
    compiled = run_scenario(detectors, compiled=True)
    assert_identical_runs(eager, compiled)
    cache = compiled[1]["program_cache"]
    assert cache["misses"] + cache["hits"] > 0, backend


# --------------------------------------------------------------------- #
# steady-state bookkeeping: O(1) per drain, whatever the model and window
# --------------------------------------------------------------------- #

def test_steady_state_drains_walk_no_parameters_and_snapshot_nothing(
        monkeypatch):
    """Warm compiled drains of 8 same-spec shards validate the cached
    stacked program by the O(1) weights token and roll back by O(chunk)
    undo points: no ``named_parameters`` walk, no ``state_dict`` copy."""
    from repro import nn
    from repro.stream import StreamScorer

    detectors = fitted_fleet("RAE", count=8)
    previous = nntape.set_tape_enabled(True)
    try:
        router = StreamRouter(window=32, min_points=2, batch_size=8)
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
        rng = np.random.default_rng(5)

        def one_arrival_each():
            for index in range(8):
                router.submit("s%d" % index, rng.standard_normal(1))
            assert len(router.drain()) == 8

        for __ in range(40):               # fill the windows, compile
            one_arrival_each()
        calls = {"named_parameters": 0, "state_dict": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(nn.Module, "named_parameters")
        counting(StreamScorer, "state_dict")
        before = router.stats()["program_cache"]
        drains = 10
        for __ in range(drains):
            one_arrival_each()
        after = router.stats()["program_cache"]
    finally:
        nntape.set_tape_enabled(previous)
    assert calls == {"named_parameters": 0, "state_dict": 0}
    assert after["hits"] - before["hits"] == drains
    assert after["misses"] == before["misses"]
    assert after["invalidations"] == before["invalidations"]


def paired_routers(detectors, window):
    """A compiled and an eager router over the same detector objects."""
    routers = []
    for __ in range(2):
        router = StreamRouter(window=window, min_points=2)
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
        routers.append(router)
    return routers


def drain_paired(routers, chunks):
    """Submit ``chunks`` to both routers, drain the first compiled and the
    second eager, and assert the drains are bit-equal."""
    drained = []
    for router, compiled in zip(routers, (True, False)):
        for sid, chunk in chunks.items():
            router.submit_many(sid, chunk)
        previous = nntape.set_tape_enabled(compiled)
        try:
            drained.append(router.drain())
        finally:
            nntape.set_tape_enabled(previous)
    compiled, eager = drained
    assert set(compiled) == set(eager) == set(chunks)
    for sid in compiled:
        assert np.array_equal(compiled[sid], eager[sid]), sid


def test_member_subset_churn_keeps_each_subsets_program():
    """Drains that alternate which two of four same-spec shards get an
    arrival stack equal slice shapes from different members.  Programs are
    keyed by member ids, so each subset keeps its own: swapping subsets
    changes no weight and invalidates nothing, and the churned drains
    hit.  Scores stay bit-equal to an eager router."""
    routers = paired_routers(fitted_fleet("RAE", count=4), window=32)
    rng = np.random.default_rng(11)

    def arrivals(indices, rows):
        return {"s%d" % i: rng.standard_normal((rows, 1)) for i in indices}

    for __ in range(3):                    # warm: every window full
        drain_paired(routers, arrivals(range(4), 16))
    subsets = [(0, 1), (2, 3)]
    for rounds in range(8):                # compile each (subset, shape)
        drain_paired(routers, arrivals(subsets[rounds % 2], 1))
    before = routers[0].stats()["program_cache"]
    for rounds in range(16):
        drain_paired(routers, arrivals(subsets[rounds % 2], 1))
    after = routers[0].stats()["program_cache"]
    assert after["invalidations"] == 0
    assert after["hits"] > before["hits"]
    assert routers[1].stats()["program_cache"] == {
        "hits": 0, "misses": 0, "invalidations": 0,
    }


def test_router_program_cache_is_bounded():
    """Drains that produce more distinct (module, shape) keys than
    ``InferencePrograms._MAX_PROGRAMS`` leave at most that many programs
    cached, and scores stay bit-equal to an eager router after the
    evictions."""
    bound = InferencePrograms._MAX_PROGRAMS
    routers = paired_routers(fitted_fleet("RAE", count=4), window=96)
    rng = np.random.default_rng(1)
    for step in range(70):
        for index in range(4):
            # One stream per drain, 1..7 arrivals: solo keys whose slice
            # lengths wander as the windows fill and slide.
            rows = 1 + (step + index) % 7
            drain_paired(routers,
                         {"s%d" % index: rng.standard_normal((rows, 1))})
            assert len(routers[0]._programs._programs) <= bound
    cache = routers[0].stats()["program_cache"]
    assert cache["misses"] > bound
    assert cache["invalidations"] == 0


# --------------------------------------------------------------------- #
# cross-detector grouping (the id() -> fingerprint re-key)
# --------------------------------------------------------------------- #

def test_distinct_same_spec_detectors_share_one_group():
    a, b = fitted_fleet("RAE", count=2)
    assert a is not b
    assert architecture_fingerprint(a) == architecture_fingerprint(b)
    assert drain_group_key(a) == drain_group_key(b)

    def drained_sessions(programs):
        sessions = [ScoringSession(det, window=64, programs=programs)
                    for det in (a, b)]
        chunk = training_series(seed=7)[:64]
        for session in sessions:
            session.ingest(chunk)
            session.scores()
        for session in sessions:
            session.ingest(np.full((8, 1), 0.25))
        return batched_session_scores(sessions, tail=[8, 8],
                                      programs=programs)

    programs = InferencePrograms()
    eager = drained_sessions(None)
    stacked = drained_sessions(programs)
    for x, y in zip(eager, stacked):
        assert np.array_equal(x, y)
    counters = programs.counters()
    # The two distinct detectors really shared one stacked program (a
    # per-id() grouping would never consult the stacked cache at all).
    assert counters["misses"] >= 1
    again = drained_sessions(programs)
    for x, y in zip(eager, again):
        assert np.array_equal(x, y)
    assert programs.counters()["hits"] > counters["hits"]


def test_unfitted_detectors_keep_identity_group_keys():
    unfitted = make_detector("RAE", **REGISTRY_CASES["RAE"])
    key = drain_group_key(unfitted)
    assert key == ("id", id(unfitted))
    assert key != drain_group_key(make_detector("RAE",
                                                **REGISTRY_CASES["RAE"]))


# --------------------------------------------------------------------- #
# counters: stats, save/restore persistence
# --------------------------------------------------------------------- #

def test_program_cache_counters_persist_across_save_restore(tmp_path):
    detectors = fitted_fleet("RAE", count=2)
    previous = nntape.set_tape_enabled(True)
    try:
        router = StreamRouter(window=64, min_points=2)
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
        for chunk in serve_chunks():
            for index in range(len(detectors)):
                router.submit_many("s%d" % index, chunk)
            router.drain()
        before = router.stats()["program_cache"]
        assert before["misses"] + before["hits"] > 0
        router.save(tmp_path)

        restored = StreamRouter.restore(tmp_path)
        assert restored.stats()["program_cache"] == before
        # Counters keep accumulating on top of the restored totals (the
        # programs themselves recompile, so at least one fresh miss).
        for index in range(len(detectors)):
            restored.submit_many(
                "s%d" % index, np.full((8, 1), 0.5)
            )
        restored.drain()
        after = restored.stats()["program_cache"]
        assert after["misses"] + after["hits"] > (
            before["misses"] + before["hits"]
        )
    finally:
        nntape.set_tape_enabled(previous)


def test_eager_mode_records_no_cache_activity():
    detectors = fitted_fleet("RAE", count=2)
    __, stats = run_scenario(detectors, compiled=False)
    assert stats["program_cache"] == {
        "hits": 0, "misses": 0, "invalidations": 0,
    }


# --------------------------------------------------------------------- #
# fault injection: a botched hot-swap inside a cross-detector group
# --------------------------------------------------------------------- #

def test_botched_hot_swap_fails_only_its_stream():
    """A member whose weights were hot-swapped to a mismatched shape must
    fail alone: the stale fingerprint keeps it in the batched group, the
    member-token change invalidates the cached stacked program, replanning
    declines (shape divergence), and the partitioned eager fallback fails
    only the broken detector's stream — groupmates score, the broken
    stream's arrivals re-queue, and fixing the weights recovers it."""
    detectors = fitted_fleet("RAE", count=3)
    previous = nntape.set_tape_enabled(True)
    try:
        router = StreamRouter(window=32, min_points=2)
        for index, detector in enumerate(detectors):
            router.add_stream("s%d" % index, detector)
        # Warm until the windows are full and slice shapes repeat, so a
        # stacked program is cached (and hit) before the hot-swap.
        for chunk in serve_chunks(chunks=4, rows=16):
            for index in range(3):
                router.submit_many("s%d" % index, chunk)
            router.drain()
        warm_cache = router.stats()["program_cache"]
        assert warm_cache["hits"] > 0

        victim = detectors[1]
        good_weights = victim.model_.readout.weight.data
        victim.model_.readout.weight.data = np.zeros((3, 3, 3))
        fresh = serve_chunks(seed=9, chunks=1, rows=16)[0]
        for index in range(3):
            router.submit_many("s%d" % index, fresh)
        with pytest.raises(DrainError) as excinfo:
            router.drain()
        assert set(excinfo.value.failures) == {"s1"}
        assert set(excinfo.value.results) == {"s0", "s2"}
        for scores in excinfo.value.results.values():
            assert scores.shape == (16,)
            assert np.isfinite(scores).all()
        stats = router.stats()
        # The member-token change was detected on the cached program.
        assert stats["program_cache"]["invalidations"] >= 1
        # The failed stream's arrivals went back to the queue...
        assert stats["per_stream"]["s1"]["lag"] == 16
        assert stats["queue_depth"] == 16

        # ...and scoring resumes once the weights are fixed.
        victim.model_.readout.weight.data = good_weights
        recovered = router.drain()
        assert set(recovered) == {"s1"}
        assert recovered["s1"].shape == (16,)
        assert np.isfinite(recovered["s1"]).all()
        assert router.stats()["per_stream"]["s1"]["lag"] == 0
    finally:
        nntape.set_tape_enabled(previous)
