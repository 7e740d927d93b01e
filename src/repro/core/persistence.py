"""Save / load fitted detectors and whole pipelines.

The streaming deployment (``score_new``) only makes sense if a fitted
detector survives the process that trained it.  Detectors are serialised to
a single ``.npz``: constructor arguments, the training scaler, the fitted
decomposition, and every module's parameter arrays.

Weights alone are not enough to *rebuild a scorer*, though: a deployment
must also round-trip how it was built — method, parameters, preprocessing,
threshold.  :func:`save_pipeline` therefore writes a JSON spec sidecar
(:class:`repro.api.PipelineSpec`) next to the npz weights, and
:func:`load_pipeline` rebuilds a fully-configured
:class:`repro.api.Pipeline` from the pair.  Shard recovery in
:class:`repro.serve.StreamRouter` is built on the same two halves.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .rae import RAE
from .rdae import RDAE

__all__ = [
    "save_detector",
    "load_detector",
    "save_pipeline",
    "load_pipeline",
]

_RAE_ARGS = (
    "lam", "epsilon", "max_iterations", "kernels", "num_layers",
    "kernel_size", "arch", "prox", "epochs_per_iteration", "lr", "seed",
)
_RDAE_ARGS = (
    "window", "lam1", "lam2", "epsilon", "max_outer", "inner_iterations",
    "series_iterations", "kernels", "num_layers", "kernel_size", "arch",
    "use_f1", "use_f2", "input_smoother", "dehankel", "prox", "epochs_per_iteration",
    "lr", "seed",
)


def _module_state(prefix, module):
    if module is None:
        return {}
    return {"%s::%s" % (prefix, k): v for k, v in module.state_dict().items()}


def _load_module_state(blob, prefix, module):
    if module is None:
        return
    wanted = "%s::" % prefix
    module.load_state_dict({
        key[len(wanted):]: blob[key]
        for key in blob.files if key.startswith(wanted)
    })


def save_detector(detector, path):
    """Serialise a fitted RAE or RDAE to ``path`` (a ``.npz`` file)."""
    if isinstance(detector, RAE):
        kind, arg_names = "RAE", _RAE_ARGS
    elif isinstance(detector, RDAE):
        kind, arg_names = "RDAE", _RDAE_ARGS
    else:
        raise TypeError("can only save RAE or RDAE, got %s" % type(detector).__name__)
    if not detector.is_fitted():
        raise RuntimeError("fit the detector before saving")
    meta = {
        "kind": kind,
        "config": {name: getattr(detector, name) for name in arg_names},
    }
    arrays = {
        "scale_mean": detector._scale_mean,
        "scale_std": detector._scale_std,
        "clean": detector.clean_,
        "outlier": detector.outlier_,
        "residual": detector._residual,
    }
    if kind == "RAE":
        arrays.update(_module_state("model", detector.model_))
    else:
        arrays.update(_module_state("inner", detector._inner))
        arrays.update(_module_state("f1", detector._f1))
        arrays.update(_module_state("f2", detector._f2))
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_detector(path):
    """Load a detector saved by :func:`save_detector`; ready for scoring."""
    blob = np.load(path)
    meta = json.loads(bytes(blob["__meta__"]).decode())
    config = meta["config"]
    if meta["kind"] == "RAE":
        detector = RAE(**config)
        rng = np.random.default_rng(detector.seed)
        dims = blob["clean"].shape[1]
        detector.model_ = detector._build(dims, rng)
        _load_module_state(blob, "model", detector.model_)
    elif meta["kind"] == "RDAE":
        detector = RDAE(**config)
        rng = np.random.default_rng(detector.seed)
        dims = blob["clean"].shape[1]
        length = blob["clean"].shape[0]
        window = detector._effective_window(length)
        detector._inner, detector._f1, detector._f2 = detector._build_modules(
            dims, window, rng
        )
        _load_module_state(blob, "inner", detector._inner)
        _load_module_state(blob, "f1", detector._f1)
        _load_module_state(blob, "f2", detector._f2)
    else:  # pragma: no cover - corrupt file
        raise ValueError("unknown detector kind %r" % meta["kind"])
    detector._scale_mean = blob["scale_mean"]
    detector._scale_std = blob["scale_std"]
    detector.clean_ = blob["clean"]
    detector.outlier_ = blob["outlier"]
    detector._residual = blob["residual"]
    return detector


# --------------------------------------------------------------------- #
# pipeline persistence: JSON spec sidecar + (optional) npz weights

def _pipeline_paths(path):
    """Normalise ``path`` (stem, ``.json``, or ``.npz``) to the file pair."""
    base = str(path)
    for suffix in (".json", ".npz"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base + ".json", base + ".npz"


def save_pipeline(pipeline, path):
    """Persist a :class:`repro.api.Pipeline` as spec sidecar + weights.

    Writes ``<path>.json`` — the pipeline's :meth:`to_spec` projection plus
    persistence metadata — and, when the detector is a fitted RAE/RDAE
    (the ``warm_startable`` family), ``<path>.npz`` weights next to it.
    Detectors without persistable weights save spec-only: the restored
    pipeline is fully configured but must be refitted before warm scoring
    (which is all a ``transductive`` detector needs anyway).

    Returns the JSON sidecar path.
    """
    spec_path, weights_path = _pipeline_paths(path)
    detector = pipeline.detector
    weights = None
    if isinstance(detector, (RAE, RDAE)) and detector.is_fitted():
        save_detector(detector, weights_path)
        # Stored relative so the saved pair can be moved as a unit.
        weights = os.path.basename(weights_path)
    doc = {
        "format": "repro.pipeline",
        "version": 1,
        "pipeline": pipeline.to_spec().to_dict(),
        "weights": weights,
        "fitted": bool(pipeline.is_fitted()),
    }
    with open(spec_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return spec_path


def load_pipeline(path):
    """Rebuild a fully-configured :class:`repro.api.Pipeline`.

    ``path`` may be the stem, the ``.json`` sidecar, or the ``.npz``
    weights file.  When weights exist the detector is restored fitted
    (ready for ``score``/``score_new``/streaming); otherwise it is rebuilt
    from the spec alone.
    """
    from ..api import Pipeline, PipelineSpec

    spec_path, __ = _pipeline_paths(path)
    with open(spec_path) as handle:
        doc = json.load(handle)
    if doc.get("format") != "repro.pipeline":
        raise ValueError(
            "%s is not a pipeline sidecar (format=%r)"
            % (spec_path, doc.get("format"))
        )
    spec = PipelineSpec.from_dict(doc["pipeline"])
    if doc.get("weights"):
        weights_path = os.path.join(
            os.path.dirname(spec_path) or ".", doc["weights"]
        )
        return Pipeline(spec, detector=load_detector(weights_path))
    return Pipeline(spec)
