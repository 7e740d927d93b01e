"""Text visualisation helpers."""

import numpy as np

from repro.viz import render_decomposition, score_strip, sparkline


def test_sparkline_length_and_charset():
    out = sparkline(np.sin(np.arange(500) / 10.0), width=60)
    assert len(out) == 60
    assert set(out) <= set(" .:-=+*#%@")


def test_sparkline_short_series():
    out = sparkline(np.array([1.0, 2.0]), width=80)
    assert len(out) == 2


def test_sparkline_empty():
    assert sparkline(np.array([])) == ""


def test_sparkline_constant_series():
    out = sparkline(np.ones(50), width=20)
    assert len(set(out)) == 1


def test_sparkline_extremes_map_to_extreme_chars():
    series = np.array([0.0, 1.0, 0.0, 1.0])
    out = sparkline(series, width=4)
    assert out[0] == " " and out[1] == "@"


def test_score_strip_rows_and_markers():
    values = np.sin(np.arange(50) / 5.0)
    scores = np.zeros(50)
    scores[10] = 1.0
    labels = np.zeros(50, dtype=int)
    labels[10] = 1
    out = score_strip(values, scores, labels, start=5, stop=15)
    lines = out.splitlines()
    assert len(lines) == 10
    flagged = [line for line in lines if line.endswith("!")]
    assert len(flagged) == 1 and "t=10" in flagged[0]
    assert "#" in flagged[0]


def test_score_strip_2d_values():
    values = np.stack([np.arange(20.0), np.zeros(20)], axis=1)
    out = score_strip(values, np.ones(20))
    assert len(out.splitlines()) == 20


def test_render_decomposition_three_rows():
    t = np.arange(100)
    original = np.sin(t / 5.0)
    out = render_decomposition(original, original * 0.9, original * 0.1)
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("input T")
    assert lines[1].startswith("clean T_L")
    assert lines[2].startswith("outlier T_S")
    assert all("|" in line for line in lines)
