"""repro: Robust and Explainable Autoencoders for Unsupervised Time Series
Outlier Detection (Kieu et al., ICDE 2022) — a full reproduction.

Public API highlights
---------------------
* :mod:`repro.api` — the spec-driven construction surface:
  :class:`repro.api.DetectorSpec` / :class:`repro.api.PipelineSpec` (the
  whole protocol as JSON-round-trippable data) and the
  :class:`repro.api.Pipeline` facade (``fit/score/fit_score/detect/
  explain``, declared ``capabilities()``, ``save``/``load``).
* :class:`repro.core.RAE` / :class:`repro.core.RDAE` — the paper's methods.
* :mod:`repro.baselines` — the 15 comparison methods plus RSSA.
* :mod:`repro.explain` — post-hoc explainability scores (ES_PRM, ES_SSA).
* :mod:`repro.datasets` — seeded surrogates for the 7 evaluation datasets.
* :mod:`repro.eval` — the unsupervised median-of-random-search protocol,
  suite runner and table renderers.
* :mod:`repro.nn` / :mod:`repro.rpca` / :mod:`repro.tsops` — the substrates
  (NumPy autograd + layers, Robust PCA, Hankel/SSA/STL machinery).

Streaming & batched scoring
---------------------------
The detectors are transductive one-shot scorers by construction, but the
package also serves continuous traffic:

* :class:`repro.stream.StreamScorer` wraps any fitted detector and scores
  arriving points over a ring-buffered sliding window, so per-arrival work
  is bounded by the window size instead of the stream length.  RAE/RDAE are
  served through :class:`repro.core.ScoringSession`, which keeps the training
  scaler, the scaled window and its last forward warm between arrivals.
* :class:`repro.eval.BatchScoringEngine` amortises model setup across many
  series: fit once (or warm-start from a ``.npz`` saved by
  :func:`repro.core.save_detector`), then micro-batch same-length series
  through a single autoencoder forward pass.
* :class:`repro.serve.StreamRouter` scales the streaming path to fleets:
  many named streams (one scorer shard each) behind a bounded ingestion
  queue, with bursts drained as micro-batches — same-detector shards share
  one grouped forward pass per drain.
* ``python -m repro stream`` exposes the single-stream machinery on the
  command line (train on the head of a CSV, emit one score line per
  streamed point); ``python -m repro serve`` serves many interleaved
  streams over a ``stream_id,value...`` line protocol.  See
  ``examples/streaming_monitoring.py`` and ``examples/sharded_serving.py``.
"""

from . import (
    api,
    baselines,
    core,
    datasets,
    eval,
    explain,
    metrics,
    nn,
    rpca,
    serve,
    stream,
    tsops,
    viz,
)
from .api import DetectorSpec, Pipeline, PipelineSpec
from .core import NRAE, NRDAE, RAE, RDAE

__version__ = "1.0.0"

__all__ = [
    "RAE",
    "RDAE",
    "NRAE",
    "NRDAE",
    "api",
    "DetectorSpec",
    "PipelineSpec",
    "Pipeline",
    "nn",
    "rpca",
    "serve",
    "stream",
    "tsops",
    "datasets",
    "baselines",
    "core",
    "explain",
    "metrics",
    "eval",
    "viz",
    "__version__",
]
