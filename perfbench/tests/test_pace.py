import pytest

from perfbench import pace
from perfbench.fleet import DRAIN_EVERY, paced_latencies


def test_factor_scales_to_the_calm_reference():
    calm = pace.REFERENCE_S
    assert pace.factor(calm, calm) == pytest.approx(1.0)
    assert pace.factor(2 * calm, 2 * calm) == pytest.approx(0.5)
    assert pace.factor(calm, 3 * calm) == pytest.approx(0.5)


def test_measure_is_positive_and_restores_the_cpu_set():
    import os

    cpus = os.sched_getaffinity(0)
    assert pace.measure() > 0
    assert os.sched_getaffinity(0) == cpus


class _Client:
    def __init__(self, received):
        self.received = received


def test_paced_latency_scales_only_the_part_after_the_drain_trigger():
    # One batch of DRAIN_EVERY arrivals due 1 ms apart; the drain starts
    # when the last is due and every answer comes 4 ms after that.
    due = [k * 1e-3 for k in range(DRAIN_EVERY)]
    arrivals = [("s%d" % k, 0, b"") for k in range(DRAIN_EVERY)]
    trigger = due[-1]
    client = _Client({(name, 0): (trigger + 4e-3, "0")
                      for name, __, __b in arrivals})
    raw = paced_latencies(client, arrivals, due, 1.0)
    assert raw == pytest.approx([(trigger - d + 4e-3) * 1e3 for d in due])
    half = paced_latencies(client, arrivals, due, 0.5)
    assert half == pytest.approx([(trigger - d + 2e-3) * 1e3 for d in due])


def test_an_unanswered_arrival_misses_every_limit():
    due = [k * 1e-3 for k in range(DRAIN_EVERY)]
    arrivals = [("s%d" % k, 0, b"") for k in range(DRAIN_EVERY)]
    out = paced_latencies(_Client({}), arrivals, due, 0.8)
    assert out == [float("inf")] * DRAIN_EVERY
