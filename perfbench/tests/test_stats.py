import pytest

from perfbench.stats import (
    p99_or_tail,
    percentile,
    select_max_rate,
    summary,
    tail_percentile,
)


def test_no_percentile_has_ten_samples_beyond_it_below_eleven_samples():
    assert tail_percentile(range(10)) == (None, None)


@pytest.mark.parametrize("n", [11, 12, 50, 1000, 1234])
def test_tail_percentile_leaves_exactly_ten_samples_beyond(n):
    values = list(range(n, 0, -1))  # unsorted on purpose
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_p99_needs_a_thousand_samples():
    assert p99_or_tail(range(1000)) == (99.0, 989)
    pct, value = p99_or_tail(range(500))
    assert pct == pytest.approx(98.0) and value == 489
    assert p99_or_tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1


def test_summary_reports_count_median_and_supported_tail():
    entry = summary(range(1, 21), "ms")
    assert entry["n"] == 20 and entry["median"] == 10.5
    assert entry["tail_pct"] == 50.0 and entry["tail"] == 10
    assert summary([], "ms") == {"unit": "ms", "n": 0}


def _step(rate, p99=5.0, backlog_ok=True, failed=0):
    return {"rate": rate, "p99_ms": p99, "backlog_ok": backlog_ok,
            "failed": failed}


def test_max_rate_is_the_highest_passing_step():
    steps = [_step(500), _step(1000), _step(2000, p99=49.9), _step(4000, 80)]
    assert select_max_rate(steps, 50.0) == 2000


def test_max_rate_stops_at_the_first_failing_step():
    steps = [_step(4000), _step(500), _step(1000, backlog_ok=False)]
    assert select_max_rate(steps, 50.0) == 500


@pytest.mark.parametrize("bad", [{"p99": None}, {"failed": 1},
                                 {"backlog_ok": False}, {"p99": 50.01}])
def test_a_failed_lowest_step_gives_zero(bad):
    assert select_max_rate([_step(500, **bad), _step(1000)], 50.0) == 0
