"""The paper's contribution: RAE, RDAE, their variants, and ADMM plumbing."""

from .autoencoders import (
    ConvMatrixAE,
    ConvSeriesAE,
    ConvTransform1d,
    ConvTransform2d,
    FCMatrixAE,
    FCSeriesAE,
    train_reconstruction,
)
from .convergence import ConvergenceTrace, stopping_conditions
from .ensemble import RobustEnsemble
from .persistence import (
    load_detector,
    load_pipeline,
    save_detector,
    save_pipeline,
)
from .rae import RAE
from .rdae import RDAE
from .scoring import (
    InferencePrograms,
    ScoringSession,
    architecture_fingerprint,
    batched_score_new,
    batched_session_scores,
    drain_group_key,
    iter_key_batches,
)
from .variants import ABLATION_NAMES, NRAE, NRDAE, make_ablation

__all__ = [
    "RAE",
    "RDAE",
    "NRAE",
    "NRDAE",
    "RobustEnsemble",
    "save_detector",
    "load_detector",
    "save_pipeline",
    "load_pipeline",
    "InferencePrograms",
    "ScoringSession",
    "architecture_fingerprint",
    "batched_score_new",
    "batched_session_scores",
    "drain_group_key",
    "iter_key_batches",
    "make_ablation",
    "ABLATION_NAMES",
    "ConvergenceTrace",
    "stopping_conditions",
    "ConvSeriesAE",
    "ConvMatrixAE",
    "FCSeriesAE",
    "FCMatrixAE",
    "ConvTransform1d",
    "ConvTransform2d",
    "train_reconstruction",
]
