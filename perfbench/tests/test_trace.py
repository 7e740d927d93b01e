import threading

import pytest

from perfbench.trace import (
    LAYER_METRICS,
    Tracer,
    covered_length,
    layer_metrics,
    layer_table,
    self_times,
)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.1, 0.3), (0.2, 0.5)], 0.0, 1.0) == pytest.approx(0.4)
    assert covered_length([(0.2, 0.3), (0.1, 0.6)], 0.0, 1.0) == pytest.approx(0.5)
    assert covered_length([(-1.0, 0.2), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.3)
    assert covered_length([(2.0, 3.0)], 0.0, 1.0) == 0.0


def _span(span_id, start, end, parent=None, name="x", drain=None, note=None):
    return (span_id, name, start, end, parent, drain, note)


def test_self_time_is_the_span_minus_what_its_children_cover():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 5.0, parent=0),      # overlaps its sibling
        _span(3, 1.5, 2.0, parent=1),      # grandchild: only charged to 1
        _span(4, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(1.0)


def test_wrappers_nest_per_thread_and_share_drain_ids():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    inner = tracer.wrap("inner", lambda: leaf(), opens_drain=True)
    outer = tracer.wrap("outer", lambda: inner(), opens_drain=True)

    threads = [threading.Thread(target=outer) for __ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    spans = {span[0]: span for span in tracer.spans()}
    assert len(spans) == 12
    for span_id, name, start, end, parent, drain, __ in spans.values():
        assert start <= end
        if name == "outer":
            assert parent is None and drain == span_id
        else:
            assert spans[parent][1] == {"inner": "outer", "leaf": "inner"}[name]
            assert drain == spans[parent][5]


def test_wrapper_records_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom, note=lambda result, *__: result)
    with pytest.raises(ValueError):
        wrapped()
    (span,) = tracer.spans()
    assert span[1] == "boom" and span[6] is None


def test_layer_metrics_from_a_drain():
    # One engine drain of two arrivals: router drain (with a stacked
    # forward inside it), stats, then delivery as the engine's self time.
    spans = [
        _span(0, 0.0, 1e-5, name="frontend.submit_rows"),
        _span(1, 2e-6, 6e-6, parent=0, name="router.submit"),
        _span(2, 1e-5, 2e-5, name="frontend.submit_rows"),
        _span(3, 1.2e-5, 1.6e-5, parent=2, name="router.submit"),
        _span(4, 1.0e-4, 1.0e-3, name="frontend.drain", drain=4),
        _span(5, 1.1e-4, 7e-4, parent=4, drain=4, name="router.drain",
              note=[2, 9e-5]),
        _span(6, 1.2e-4, 1.3e-4, parent=5, drain=4, name="scoring.group_key",
              note=11),
        _span(7, 1.3e-4, 1.4e-4, parent=5, drain=4, name="scoring.group_key",
              note=11),
        _span(8, 2e-4, 6e-4, parent=5, drain=4, name="scoring.forward",
              note=2),
        _span(9, 7e-4, 8e-4, parent=4, drain=4, name="router.stats"),
    ]
    document = {"spans": spans, "counters": {"program_cache.hits": 3,
                                             "program_cache.misses": 1}}
    values, rows = layer_metrics([document])
    assert values["frontend.submit_us"] == pytest.approx((2e-5 - 8e-6) * 1e6 / 2)
    assert values["frontend.deliver_ms"] == pytest.approx((9e-4 - 5.9e-4 - 1e-4) * 1e3)
    assert values["frontend.drain_arrivals"] == 2
    assert values["router.queue_wait_ms"] == pytest.approx(9e-2)
    assert values["router.drain_ms"] == pytest.approx(5.9e-1)
    assert values["router.stats_ms"] == pytest.approx(1e-1)
    assert values["router.groups_per_drain"] == 1
    assert values["scoring.rows_per_forward"] == 2
    assert values["scoring.program_hit_ratio"] == pytest.approx(0.75)
    assert values["nn.train_call_ms"] is None
    assert values["trace.spans"] == len(spans)
    assert {row[0] for row in rows} >= {"frontend.drain", "router.drain"}
    table = layer_table(values, rows, "serve-fleet")
    for name, *__ in LAYER_METRICS:
        assert name in table
    assert "training layer; this workload never fits" in table
