"""StreamRouter: shard isolation, determinism vs solo scorers, backpressure."""

import numpy as np
import pytest

from repro.baselines import EMADetector
from repro.core import RAE, RDAE
from repro.eval import make_detector
from repro.serve import DrainError, QueueFullError, StreamRouter
from repro.serve.router import DrainResult
from repro.stream import StreamScorer


def make_series(seed, length=300, spike=None):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = np.sin(2 * np.pi * t / 25) + 0.05 * rng.standard_normal(length)
    if spike is not None:
        values[spike] += 6.0
    return values[:, None]


@pytest.fixture(scope="module")
def fitted_rae():
    return RAE(max_iterations=4).fit(make_series(0))


@pytest.fixture(scope="module")
def live_streams():
    """Ten independent live series (one per stream id)."""
    return {f"s{i}": make_series(100 + i, length=90) for i in range(10)}


def test_stream_lifecycle(fitted_rae):
    router = StreamRouter(fitted_rae, window=32)
    router.add_stream("a")
    assert "a" in router and len(router) == 1
    assert router.streams() == ["a"]
    with pytest.raises(ValueError):
        router.add_stream("a")
    # Auto-created on first submit when a default detector exists.
    router.submit("b", 0.1)
    assert "b" in router and len(router) == 2


def test_unknown_stream_without_default_detector(fitted_rae):
    router = StreamRouter(window=32)
    with pytest.raises(ValueError):
        router.add_stream("a")
    with pytest.raises(KeyError):
        router.submit("a", 0.1)
    # Per-stream detectors still work without a router default.
    router.add_stream("a", fitted_rae)
    router.submit("a", 0.1)
    assert router.drain()["a"].shape == (1,)


def test_invalid_arguments(fitted_rae):
    with pytest.raises(ValueError):
        StreamRouter(fitted_rae, queue_limit=0)
    with pytest.raises(ValueError):
        StreamRouter(fitted_rae, on_full="bogus")


def test_drain_matches_dedicated_scorers_point_by_point(fitted_rae,
                                                        live_streams):
    """The acceptance bar: >=8 concurrent streams, per-stream scores equal
    to a dedicated StreamScorer fed the same points one at a time."""
    router = StreamRouter(fitted_rae, window=48)
    solos = {sid: StreamScorer(fitted_rae, window=48) for sid in live_streams}
    routed = {sid: [] for sid in live_streams}
    solo = {sid: [] for sid in live_streams}
    length = len(next(iter(live_streams.values())))
    for step in range(length):
        for sid, series in live_streams.items():
            router.submit(sid, series[step])
        results = router.drain()
        for sid, series in live_streams.items():
            routed[sid].append(float(results[sid][0]))
            solo[sid].append(solos[sid].push(series[step]))
    assert len(router) >= 8
    for sid in live_streams:
        assert np.allclose(routed[sid], solo[sid]), sid


def test_drain_matches_dedicated_scorers_chunked(fitted_rae, live_streams):
    """Burst ingestion: each drain's per-stream chunk must reproduce the
    dedicated scorer's push_many of the same chunk."""
    router = StreamRouter(fitted_rae, window=48)
    solos = {sid: StreamScorer(fitted_rae, window=48) for sid in live_streams}
    for lo, hi in ((0, 30), (30, 37), (37, 90)):
        for sid, series in live_streams.items():
            router.submit_many(sid, series[lo:hi])
        results = router.drain()
        for sid, series in live_streams.items():
            expected = solos[sid].push_many(series[lo:hi])
            assert np.allclose(results[sid], expected), sid


def test_shard_isolation(fitted_rae):
    """A spike on one stream must not perturb any other stream's scores."""
    calm = make_series(7, length=80)
    router_clean = StreamRouter(fitted_rae, window=48)
    router_spiked = StreamRouter(fitted_rae, window=48)
    spiked = make_series(8, length=80, spike=60)
    for step in range(80):
        router_clean.submit("calm", calm[step])
        router_clean.submit("other", calm[step] * 0.5)
        router_spiked.submit("calm", calm[step])
        router_spiked.submit("other", spiked[step])
    clean = router_clean.drain()
    with_spike = router_spiked.drain()
    # The calm stream's scores are identical whether its neighbour spiked
    # or not: shards share the detector, never window state.
    assert np.allclose(clean["calm"], with_spike["calm"])
    assert with_spike["other"].max() > 10 * clean["other"].max()


def test_min_points_warmup_matches_scorer(fitted_rae):
    router = StreamRouter(fitted_rae, window=32, min_points=6)
    solo = StreamScorer(fitted_rae, window=32, min_points=6)
    series = make_series(9, length=12)
    routed = []
    for point in series:
        router.submit("s", point)
        routed.append(float(router.drain()["s"][0]))
    expected = [solo.push(point) for point in series]
    assert np.allclose(routed, expected)
    assert np.allclose(routed[:5], 0.0)


def test_mixed_detector_shards(fitted_rae):
    """Session-backed and ring-backed shards coexist in one drain."""
    series = make_series(10, length=120)
    ema = EMADetector().fit(series)
    router = StreamRouter(window=64)
    router.add_stream("deep", fitted_rae)
    router.add_stream("classic", ema)
    router.submit_many("deep", series[:80])
    router.submit_many("classic", series[:80])
    results = router.drain()
    assert np.allclose(
        results["deep"], StreamScorer(fitted_rae, window=64).push_many(series[:80])
    )
    assert np.allclose(
        results["classic"], StreamScorer(ema, window=64).push_many(series[:80])
    )


def test_rdae_matrix_shards_fall_back_to_solo_path():
    """Lagged-matrix shards can't batch across streams but must still agree
    with a dedicated scorer through the router."""
    series = make_series(11, length=160)
    det = RDAE(window=20, max_outer=1, inner_iterations=2,
               series_iterations=2, use_f2=False).fit(series)
    router = StreamRouter(det, window=60)
    solos = {sid: StreamScorer(det, window=60) for sid in ("a", "b")}
    live = {"a": make_series(12, length=70), "b": make_series(13, length=70)}
    for lo, hi in ((0, 40), (40, 70)):
        for sid in solos:
            router.submit_many(sid, live[sid][lo:hi])
        results = router.drain()
        for sid in solos:
            assert np.allclose(results[sid],
                               solos[sid].push_many(live[sid][lo:hi])), sid


def test_submit_rejects_mismatched_dims(fitted_rae):
    """A malformed arrival is rejected at submission — it must never reach
    the queue and poison a whole drained burst."""
    router = StreamRouter(fitted_rae, window=32)
    router.submit("a", 1.0)
    with pytest.raises(ValueError, match="dimensional"):
        router.submit("a", [1.0, 2.0])
    router.submit("b", 0.5)
    results = router.drain()
    assert results["a"].shape == (1,) and results["b"].shape == (1,)


def test_submit_dims_follow_seeded_shard(fitted_rae):
    router = StreamRouter(fitted_rae, window=32)
    router.add_stream("a").seed(make_series(5, length=40))
    with pytest.raises(ValueError, match="dimensional"):
        router.submit("a", [1.0, 2.0])
    router.submit("a", 0.5)
    assert router.drain()["a"].shape == (1,)


def test_drain_isolates_faulty_shards(fitted_rae):
    """A shard that cannot ingest (unfitted detector) must not destroy the
    burst: healthy streams score, the faulty stream's arrivals re-queue."""
    router = StreamRouter(window=32)
    router.add_stream("ok", fitted_rae)
    router.add_stream("broken", RAE())  # unfitted: fails on first ingest
    router.submit("ok", 0.3)
    router.submit("broken", 0.3)
    with pytest.raises(DrainError) as excinfo:
        router.drain()
    err = excinfo.value
    assert set(err.failures) == {"broken"}
    assert err.results["ok"].shape == (1,)
    stats = router.stats()
    assert stats["queue_depth"] == 1  # the faulty arrival survived
    assert stats["per_stream"]["broken"]["lag"] == 1
    assert stats["per_stream"]["ok"]["scored"] == 1


def test_non_finite_arrivals_are_rejected_before_queueing(fitted_rae):
    """NaN/inf would poison a stream's window (every score NaN until it
    ages out) without any counter noticing; submit refuses them."""
    router = StreamRouter(fitted_rae, window=32)
    router.submit_many("s", make_series(1)[:8])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            router.submit("s", bad)
    with pytest.raises(ValueError, match="finite"):
        router.submit_many("s", [[0.1], [np.nan], [0.2]])
    stats = router.stream_stats("s")
    assert stats["submitted"] == 8 and stats["lag"] == 8
    router.submit_many("s", make_series(2)[:4])
    scores = router.drain()["s"]
    assert scores.shape == (12,) and np.isfinite(scores).all()


def test_submit_many_rejects_chunks_of_more_than_two_dims(fitted_rae):
    """A 3-D chunk once queued (1, 3) rows under dims 1; the next drain
    then raised from np.stack outside the fault isolation and lost every
    popped arrival, a healthy stream's included."""
    router = StreamRouter(fitted_rae, window=32)
    router.submit_many("good", make_series(3)[:3])
    with pytest.raises(ValueError, match="shape"):
        router.submit_many("t", np.zeros((2, 1, 3)))
    router.submit("t", [1.0])
    results = router.drain()
    assert results["good"].shape == (3,) and results["t"].shape == (1,)
    assert router.stream_stats("good")["lag"] == 0


class FlakyDetector:
    """score = |x| per row; raises while ``broken`` is set."""

    stateless_scoring = True

    def __init__(self):
        self.broken = False

    def fit(self, X):
        return self

    def score(self, X):
        if self.broken:
            raise RuntimeError("flaky detector")
        return np.abs(np.asarray(X, dtype=np.float64)).sum(axis=1)


def test_origin_tags_ride_evictions_and_requeues(fitted_rae):
    """Each score comes back with its arrival's origin tag, and
    first_index is the stream's scored count before the drain.  An
    eviction drops its arrival's tag; a failed stream's re-queue keeps
    the tags for the retry."""
    router = StreamRouter(fitted_rae, window=16, queue_limit=5,
                          on_full="drop_oldest")
    flaky = FlakyDetector()
    router.add_stream("f", flaky)
    flaky.broken = True
    router.submit_many("a", make_series(4)[:2], origin="x")
    router.submit_many("f", [1.0, 2.0], origin="y")
    router.submit("a", 0.3)  # untagged
    router.submit("a", 0.4, origin="z")  # evicts x's first arrival
    with pytest.raises(DrainError) as excinfo:
        router.drain()
    results = excinfo.value.results
    assert isinstance(results, DrainResult)
    assert list(results) == ["a"]
    assert results.origins == {"a": ["x", None, "z"]}
    assert results.first_index == {"a": 0}

    flaky.broken = False
    router.submit("a", 0.5, origin="x")
    router.submit("f", 3.0, origin="w")
    results = router.drain()
    assert results.origins == {"f": ["y", "y", "w"], "a": ["x"]}
    assert results.first_index == {"f": 0, "a": 3}
    assert results["f"].tolist() == [1.0, 2.0, 3.0]
    assert router.drain().origins == {}


def test_restored_arrivals_come_back_untagged(tmp_path):
    """Saves drop the origin tags; indices continue after a restore."""
    router = StreamRouter(make_detector("EMA"), window=16)
    router.submit_many("a", np.arange(5.0), origin="x")
    router.drain()
    router.submit_many("a", [5.0, 6.0], origin="x")
    router.submit("b", 1.0, origin="y")
    router.save(tmp_path)
    restored = StreamRouter.restore(tmp_path)
    restored.submit("a", 7.0, origin="z")
    results = restored.drain()
    assert results.origins == {"a": [None, None, "z"], "b": [None]}
    assert results.first_index == {"a": 5, "b": 0}


def test_queue_overflow_error_policy(fitted_rae):
    router = StreamRouter(fitted_rae, window=32, queue_limit=5)
    for i in range(5):
        router.submit("s", float(i))
    with pytest.raises(QueueFullError):
        router.submit("s", 5.0)
    # Draining frees capacity again.
    router.drain()
    router.submit("s", 5.0)
    assert router.stats()["queue_depth"] == 1


def test_queue_overflow_drop_oldest_policy(fitted_rae):
    router = StreamRouter(fitted_rae, window=32, queue_limit=4,
                          on_full="drop_oldest")
    router.submit_many("a", np.arange(4.0))
    router.submit("b", 9.0)  # evicts a's oldest queued arrival
    results = router.drain()
    assert results["a"].shape == (3,)
    assert results["b"].shape == (1,)
    stats = router.stats()
    assert stats["dropped"] == 1
    assert stats["per_stream"]["a"]["dropped"] == 1
    assert stats["per_stream"]["a"]["lag"] == 0


def test_partial_drain_respects_fifo(fitted_rae):
    router = StreamRouter(fitted_rae, window=32)
    router.submit_many("a", np.arange(6.0))
    results = router.drain(max_points=4)
    assert results["a"].shape == (4,)
    assert router.stats()["queue_depth"] == 2
    rest = router.drain()
    assert rest["a"].shape == (2,)
    assert router.drain() == {}


def test_stats_surface(fitted_rae, live_streams):
    router = StreamRouter(fitted_rae, window=48)
    for sid, series in live_streams.items():
        router.submit_many(sid, series[:20])
    router.drain()
    for sid, series in live_streams.items():
        router.submit_many(sid, series[20:25])
    stats = router.stats()
    assert stats["streams"] == len(live_streams)
    assert stats["scored"] == 20 * len(live_streams)
    assert stats["submitted"] == 25 * len(live_streams)
    assert stats["queue_depth"] == 5 * len(live_streams)
    assert stats["drains"] == 1
    per = stats["per_stream"]["s0"]
    assert per["lag"] == 5 and per["scored"] == 20 and per["total"] == 20


# ------------------------- concurrency contract ------------------------- #

def test_concurrent_submits_never_lose_arrivals(fitted_rae):
    """submit()/submit_many() are thread-safe: racing producers must land
    every arrival exactly once, with consistent counters."""
    import threading

    router = StreamRouter(fitted_rae, window=32, queue_limit=100_000)
    per_thread, threads = 400, 6

    def produce(tid):
        for j in range(per_thread):
            if j % 10 == 0:
                router.submit_many(f"t{tid}", [[0.1], [0.2]])
            else:
                router.submit(f"t{tid}", [float(j) / per_thread])

    workers = [threading.Thread(target=produce, args=(t,))
               for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    expected = threads * (per_thread + per_thread // 10)
    stats = router.stats()
    assert stats["submitted"] == expected
    assert stats["queue_depth"] == expected
    results = router.drain()
    assert sum(len(v) for v in results.values()) == expected
    assert router.stats()["scored"] == expected


def test_stats_snapshot_is_consistent_under_load(fitted_rae):
    """stats() under one lock: the submitted == scored + dropped + lag
    invariant must hold in every snapshot taken while producers and a
    drain loop run concurrently (field-by-field reads could tear)."""
    import threading

    router = StreamRouter(fitted_rae, window=32, queue_limit=100_000)
    stop = threading.Event()
    violations = []

    def produce():
        j = 0
        while not stop.is_set():
            router.submit(f"p{j % 4}", [0.1])
            j += 1

    def watch():
        while not stop.is_set():
            snapshot = router.stats()
            total = 0
            for per in snapshot["per_stream"].values():
                if per["submitted"] != (per["scored"] + per["dropped"]
                                        + per["lag"]):
                    violations.append(per)
                total += per["submitted"]
            if total != snapshot["submitted"]:
                violations.append(snapshot)

    producer = threading.Thread(target=produce)
    watcher = threading.Thread(target=watch)
    producer.start()
    watcher.start()
    for __ in range(10):
        router.drain()
    stop.set()
    producer.join()
    watcher.join()
    router.drain()
    assert not violations
    assert router.stats()["scored"] == router.stats()["submitted"]
