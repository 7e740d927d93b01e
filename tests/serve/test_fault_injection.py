"""Fault injection for the serving layer: shards that fail mid-drain.

:class:`TripwireDetector` raises from ``score`` whenever the live window
contains a magic POISON value travelling *in the data*.  A drain must
isolate it: healthy streams score, the faulty stream's arrivals return to
the queue front, state is rolled back so nothing is double-ingested, and
once the poison ages out of the window the stream recovers with zero lost
or duplicated arrivals.  Session-backed shards (fitted RAE/RDAE) fail
through a botched weight hot-swap instead, and must roll back bit-exactly
from their O(chunk) undo points.

Everything here is deterministic: faults fire on data content, never on
timing.
"""

import numpy as np
import pytest

from repro.core import RAE, RDAE
from repro.serve import DrainError, StreamRouter

POISON = -86486486.0  # exact in float64, never produced by clean feeds


class TripwireDetector:
    """Deterministic scorer (|x| summed per row) that trips on POISON."""

    stateless_scoring = True

    def fit(self, X):
        return self

    def score(self, X):
        X = np.asarray(X, dtype=np.float64)
        if np.any(X == POISON):
            raise RuntimeError("tripwire: poison value in window")
        return np.abs(X).sum(axis=1)


def clean_rows(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(1.0, 9.0, size=(n, 1))


def make_router():
    router = StreamRouter(window=4, min_points=2)
    # Distinct instances: two shard groups, scored one after the other.
    router.add_stream("healthy", TripwireDetector())
    router.add_stream("doomed", TripwireDetector())
    return router


def total_counts(router):
    per_stream = router.stats()["per_stream"]
    return {sid: (entry["submitted"], entry["scored"])
            for sid, entry in per_stream.items()}


def test_scoring_fault_is_isolated_requeued_and_recovered():
    healthy_rows = clean_rows(0, 7)
    doomed_rows = clean_rows(1, 6)
    router = make_router()
    # Warm both streams past min_points.
    router.submit_many("healthy", healthy_rows[:3])
    router.submit_many("doomed", doomed_rows[:2])
    first = router.drain()
    assert set(first) == {"healthy", "doomed"}

    # Poison the doomed stream; the healthy one keeps scoring.
    router.submit_many("doomed", np.array([[POISON]]))
    router.submit_many("healthy", healthy_rows[3:5])
    with pytest.raises(DrainError) as excinfo:
        router.drain()
    err = excinfo.value
    assert set(err.failures) == {"doomed"}
    assert "tripwire" in str(err.failures["doomed"])
    assert set(err.results) == {"healthy"}
    assert err.results["healthy"].shape == (2,)

    # The poison was re-queued, not ingested: counters untouched,
    # and a second drain trips identically (no duplication either).
    stats = router.stats()
    assert stats["queue_depth"] == 1
    assert stats["per_stream"]["doomed"]["scored"] == 2
    assert stats["per_stream"]["doomed"]["submitted"] == 3
    with pytest.raises(DrainError):
        router.drain()
    assert router.stats()["per_stream"]["doomed"]["scored"] == 2

    # Recovery: four clean rows push the poison out of the window=4
    # ring, so the re-queued arrival finally drains.  Evicted rows
    # score 0.0 by the chunk>window contract.
    router.submit_many("doomed", doomed_rows[2:6])
    recovered = router.drain()
    assert recovered["doomed"].shape == (5,)
    assert recovered["doomed"][0] == 0.0
    assert np.array_equal(recovered["doomed"][1:],
                          np.abs(doomed_rows[2:6]).sum(axis=1))

    # Zero lost, zero duplicated: every submitted arrival was scored
    # exactly once on both streams.
    assert total_counts(router) == {"healthy": (5, 5), "doomed": (7, 7)}
    assert router.stats()["queue_depth"] == 0

    # The healthy stream never noticed: its scores match an
    # uninterrupted solo run fed the same arrivals.
    solo = StreamRouter(TripwireDetector(), window=4, min_points=2)
    solo.submit_many("healthy", healthy_rows[:3])
    expected_first = solo.drain()["healthy"]
    solo.submit_many("healthy", healthy_rows[3:5])
    expected_second = solo.drain()["healthy"]
    assert np.array_equal(first["healthy"], expected_first)
    assert np.array_equal(err.results["healthy"], expected_second)


def test_fault_during_warmup_chunk_rolls_back_cleanly():
    """A chunk that fails mid-protocol must not leave partial state: the
    retry (after recovery is possible) scores as if the fault never ran."""
    rows = clean_rows(2, 4)
    router = make_router()
    # Poison arrives inside the very first chunk for "doomed".
    chunk = np.vstack([rows[:1], [[POISON]]])
    router.submit_many("doomed", chunk)
    router.submit_many("healthy", rows[:3])
    with pytest.raises(DrainError) as excinfo:
        router.drain()
    assert set(excinfo.value.failures) == {"doomed"}
    # Both rows of the failed chunk are back in the queue, in order.
    assert router.stats()["queue_depth"] == 2
    assert router.stats()["per_stream"]["doomed"]["scored"] == 0

    # Flush the poison out of the window and drain everything.
    router.submit_many("doomed", rows)
    recovered = router.drain()
    assert recovered["doomed"].shape == (6,)
    assert total_counts(router)["doomed"] == (6, 6)


# --------------------------------------------------------------------- #
# session-backed shards: rollback after a botched hot-swap
# --------------------------------------------------------------------- #

def fitted(kind):
    rng = np.random.default_rng(0)
    series = (np.sin(np.linspace(0, 24, 180))[:, None]
              + 0.1 * rng.standard_normal((180, 1)))
    if kind == "rdae_matrix":
        detector = RDAE(window=8, use_f2=False, max_outer=1,
                        inner_iterations=1, series_iterations=1)
        return detector.fit(series), detector._inner
    detector = RAE(max_iterations=1, epochs_per_iteration=1).fit(series)
    return detector, detector.model_


def series_rows(seed, n):
    return np.sin(np.arange(n) / 3.0 + seed)[:, None] + 0.05 * seed


def assert_states_equal(left, right):
    assert left.keys() == right.keys()
    for key in left:
        assert np.array_equal(left[key], right[key]), key


ROLLBACK_CASES = {
    # (kind, window, warm-up rows, failing chunk rows)
    "wraps-full-ring": ("rae", 32, 60, 8),     # slots 28..35 wrap past 32
    "chunk-over-window": ("rae", 32, 45, 40),
    "lagged-matrix": ("rdae_matrix", 32, 50, 6),
}


@pytest.mark.parametrize("case", sorted(ROLLBACK_CASES))
def test_botched_hot_swap_rolls_session_back_exactly(case):
    kind, window, warm, rows = ROLLBACK_CASES[case]
    detector, module = fitted(kind)
    weight = next(p for __, p in module.named_parameters()
                  if p.data.ndim >= 3)    # the first conv kernel
    good = weight.data
    warm_rows, chunk = series_rows(1, warm), series_rows(2, rows)
    after = series_rows(3, 3)

    def serve(botch):
        router = StreamRouter(window=window, min_points=2)
        router.add_stream("s", detector)
        for lo in range(0, warm, 5):
            router.submit_many("s", warm_rows[lo:lo + 5])
            router.drain()
        router.submit_many("s", chunk)
        if botch:
            before = router.stream("s").state_dict()
            weight.data = np.zeros((3,) * good.ndim)
            with pytest.raises(DrainError) as excinfo:
                router.drain()
            assert set(excinfo.value.failures) == {"s"}
            assert router.stats()["per_stream"]["s"]["lag"] == rows
            # Rolled back bit-exactly, before anything re-ingests.
            assert_states_equal(before, router.stream("s").state_dict())
            weight.data = good
        drained = [router.drain()["s"]]
        router.submit_many("s", after)
        drained.append(router.drain()["s"])
        return drained, router.stream("s").state_dict()

    reference, reference_state = serve(botch=False)
    recovered, recovered_state = serve(botch=True)
    for want, got in zip(reference, recovered):
        assert np.array_equal(want, got)
    assert_states_equal(reference_state, recovered_state)
