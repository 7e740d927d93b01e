"""Time-series operations: Hankel embedding, SSA, RSSA, STL, smoothing."""

from .hankel import deembed_lagged, embed_lagged, hankel_weights, hankelize
from .rssa import RSSAResult, rssa_decompose
from .scaling import minmax_scale, robust_scale, standardize
from .smoothing import ema, loess, moving_average
from .ssa import SSADecomposition, default_window, ssa_decompose, ssa_reconstruct
from .stl import STLResult, estimate_period, stl_decompose
from .windows import overlap_average, sliding_windows, window_count

__all__ = [
    "embed_lagged",
    "deembed_lagged",
    "hankelize",
    "hankel_weights",
    "SSADecomposition",
    "ssa_decompose",
    "ssa_reconstruct",
    "default_window",
    "RSSAResult",
    "rssa_decompose",
    "STLResult",
    "stl_decompose",
    "estimate_period",
    "ema",
    "moving_average",
    "loess",
    "standardize",
    "minmax_scale",
    "robust_scale",
    "sliding_windows",
    "overlap_average",
    "window_count",
]
