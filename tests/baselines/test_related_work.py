"""Related-work extras (Section VI): HOT SAX and Series2Graph."""

import numpy as np

from repro.baselines import HotSAX, Series2Graph, sax_word
from repro.baselines.hotsax import paa
from repro.metrics import roc_auc


def test_paa_means():
    segment = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    assert np.allclose(paa(segment, 3), [1.0, 2.0, 3.0])


def test_paa_uneven_split():
    out = paa(np.arange(7, dtype=float), 3)
    assert out.shape == (3,)
    assert np.isfinite(out).all()


def test_sax_word_properties():
    rng = np.random.default_rng(0)
    word = sax_word(rng.standard_normal(32), n_pieces=4, alphabet=3)
    assert len(word) == 4
    assert all(c in "abc" for c in word)


def test_sax_word_shift_invariant():
    segment = np.sin(np.arange(24) / 3.0)
    assert sax_word(segment) == sax_word(segment + 100.0)
    assert sax_word(segment) == sax_word(segment * 5.0)


def test_sax_distinguishes_shapes():
    up = np.linspace(-1, 1, 16)
    down = np.linspace(1, -1, 16)
    assert sax_word(up) != sax_word(down)


def test_hotsax_finds_spikes(spiky_series):
    values, labels = spiky_series
    scores = HotSAX(pattern_size=12).fit_score(values)
    assert roc_auc(labels, scores) > 0.8


def test_hotsax_finds_discord_segment():
    t = np.arange(400)
    series = np.sin(2 * np.pi * t / 40)
    series[200:210] += 2.5
    labels = np.zeros(400, dtype=int)
    labels[200:210] = 1
    scores = HotSAX(pattern_size=20).fit_score(series)
    assert roc_auc(labels, scores) > 0.8


def test_hotsax_multivariate(spiky_multivariate):
    values, labels = spiky_multivariate
    scores = HotSAX(pattern_size=15).fit_score(values)
    assert scores.shape == (len(values),)
    assert roc_auc(labels, scores) > 0.6


def test_series2graph_finds_spikes(spiky_series):
    values, labels = spiky_series
    scores = Series2Graph(pattern_size=12).fit_score(values)
    assert scores.shape == (len(values),)
    assert roc_auc(labels, scores) > 0.7


def test_series2graph_builds_graph(spiky_series):
    values, __ = spiky_series
    det = Series2Graph(pattern_size=12)
    det.fit_score(values)
    assert det.graph_ is not None
    assert det.graph_.number_of_nodes() >= 2
    assert det.graph_.number_of_edges() >= 1


def test_series2graph_normal_path_low_score():
    """A perfectly periodic series travels one cycle of well-worn edges, so
    the anomaly scores concentrate on (at most) boundary effects."""
    t = np.arange(300)
    series = np.sin(2 * np.pi * t / 30)
    scores = Series2Graph(pattern_size=15).fit_score(series)
    interior = scores[30:-30]
    assert interior.std() < scores.std() + 1e-9
