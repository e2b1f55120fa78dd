"""The 8 normalization methods studied in Section 4 of the paper.

Equations (1)-(9) of the paper, implemented with numerically safe guards:
constant series (zero variance / zero range / zero norm / zero median) would
divide by zero under the textbook formulas, so each method documents and
implements a deterministic fallback instead of emitting NaN.

All methods are pure functions of the input series except
:data:`ADAPTIVE_SCALING`, which is pairwise: it rescales the second series of
every comparison by the least-squares optimal factor (paper Eq. 7).

Each method has one row-wise core that works along the last axis of an
``(..., m)`` array, applying its constant-series fallback per row through
masks; the registered :class:`~repro.normalization.base.Normalizer` holds
the core, so a whole dataset is one call, and the public 1-D function
validates its input and calls the same core. A row's output is therefore
bitwise the same whether it is normalized alone or in a batch. The two
dot products (UnitLength's norm and the AdaptiveScaling factor) are one
last-axis reduction each for the same reason.
"""

from __future__ import annotations

import numpy as np

from .._validation import EPS, as_series, guarded_divide
from ..exceptions import ValidationError
from .base import Normalizer, register_normalizer


def _zscore(X: np.ndarray) -> np.ndarray:
    return guarded_divide(
        X - X.mean(axis=-1, keepdims=True), X.std(axis=-1, keepdims=True)
    )


def zscore(x: np.ndarray) -> np.ndarray:
    """Eq. (1): zero mean, unit variance. Constant series map to zeros."""
    return _zscore(as_series(x))


def _minmax(X: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    lo = X.min(axis=-1, keepdims=True)
    span = X.max(axis=-1, keepdims=True) - lo
    scaled = guarded_divide(X - lo, span)
    return np.where(span < EPS, (low + high) / 2.0, low + scaled * (high - low))


def minmax(x: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Eqs. (2)/(3): scale values into ``[low, high]``.

    Constant series map to the midpoint of the target range.
    """
    return _minmax(as_series(x), low, high)


def _mean_norm(X: np.ndarray) -> np.ndarray:
    span = X.max(axis=-1, keepdims=True) - X.min(axis=-1, keepdims=True)
    return guarded_divide(X - X.mean(axis=-1, keepdims=True), span)


def mean_norm(x: np.ndarray) -> np.ndarray:
    """Eq. (4): z-score numerator over MinMax denominator."""
    return _mean_norm(as_series(x))


def _median_norm(X: np.ndarray) -> np.ndarray:
    med = np.median(X, axis=-1, keepdims=True)
    mean = X.mean(axis=-1, keepdims=True)
    # Dividing by 1.0 returns a degenerate row unchanged, bit for bit.
    fallback = np.where(np.abs(mean) >= EPS, mean, 1.0)
    return X / np.where(np.abs(med) >= EPS, med, fallback)


def median_norm(x: np.ndarray) -> np.ndarray:
    """Eq. (5): divide by the median.

    The paper notes this method "is less popular due to numerical issues
    that may arise"; when the median is (near) zero we fall back to dividing
    by the mean, and if that is also degenerate we return the series
    unchanged — the least surprising of the bad options.
    """
    return _median_norm(as_series(x))


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x · y`` along the last axis, one pairwise-summed reduction per
    row: a row's value is the same whether it is reduced alone or in a
    batch, which BLAS dot (``np.dot``, ``np.linalg.norm``) does not
    promise."""
    return (x * y).sum(axis=-1)


def _unit_length(X: np.ndarray) -> np.ndarray:
    return guarded_divide(X, np.sqrt(_sum_of_products(X, X))[..., None])


def unit_length(x: np.ndarray) -> np.ndarray:
    """Eq. (6): scale so the Euclidean norm of the series is one."""
    return _unit_length(as_series(x))


def _adaptive_factors(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Eq. (7) factor of ``x`` against each row of ``Y`` (last axis)."""
    if x.shape[-1] != Y.shape[-1]:
        raise ValidationError(
            "AdaptiveScaling scales y point by point onto x, so both need "
            f"equal length, got {x.shape[-1]} and {Y.shape[-1]}; resample "
            "first (repro.datasets.preprocessing)"
        )
    return guarded_divide(_sum_of_products(x, Y), _sum_of_products(Y, Y))


def adaptive_scaling_factor(x: np.ndarray, y: np.ndarray) -> float:
    """Eq. (7): per-pair scaling factor ``a`` such that ``a*y`` matches ``x``.

    We use the least-squares optimum ``a = (x . y) / (y . y)`` which
    minimizes ``||x - a*y||``; the paper prints the denominator as
    ``x_i . x_i`` but applies the factor as ``ED(x_i, a * x_j)``, for which
    the least-squares denominator is the scaled series' self-product. Both
    conventions coincide for unit-length inputs; we keep the optimal one and
    note the deviation here. A zero ``y`` gets the factor 0.
    """
    return float(_adaptive_factors(as_series(x, "x"), as_series(y, "y")))


def _adaptive_pair(x: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and every row of ``Y`` scaled by its own Eq. (7) factor."""
    return x, _adaptive_factors(x, Y)[..., None] * Y


def _logistic(X: np.ndarray) -> np.ndarray:
    # Split by sign for numerical stability on large magnitudes.
    out = np.empty_like(X)
    pos = X >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-X[pos]))
    expx = np.exp(X[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def logistic(x: np.ndarray) -> np.ndarray:
    """Eq. (8): logistic (sigmoid) activation of each value."""
    return _logistic(as_series(x))


def tanh(x: np.ndarray) -> np.ndarray:
    """Eq. (9): hyperbolic tangent activation of each value."""
    return np.tanh(as_series(x))


ZSCORE = register_normalizer(
    Normalizer(
        name="zscore",
        label="z-score",
        transform=_zscore,
        description="Zero mean, unit variance (the literature's default).",
        aliases=("z", "z-score", "znorm", "standard"),
    )
)

MINMAX = register_normalizer(
    Normalizer(
        name="minmax",
        label="MinMax",
        transform=_minmax,
        description="Scale values into [0, 1].",
        aliases=("min-max", "range"),
    )
)

MEAN_NORM = register_normalizer(
    Normalizer(
        name="meannorm",
        label="MeanNorm",
        transform=_mean_norm,
        description="Center by mean, scale by range (z-score x MinMax mix).",
        aliases=("mean",),
    )
)

MEDIAN_NORM = register_normalizer(
    Normalizer(
        name="mediannorm",
        label="MedianNorm",
        transform=_median_norm,
        description="Divide by the median (mean fallback when degenerate).",
        aliases=("median",),
    )
)

UNIT_LENGTH = register_normalizer(
    Normalizer(
        name="unitlength",
        label="UnitLength",
        transform=_unit_length,
        description="Scale the series to unit Euclidean norm.",
        aliases=("unit", "l2norm"),
    )
)

ADAPTIVE_SCALING = register_normalizer(
    Normalizer(
        name="adaptive",
        label="AdaptiveScaling",
        transform=None,
        pair_transform=_adaptive_pair,
        description="Per-pair least-squares scaling factor (Eq. 7).",
        aliases=("adaptivescaling", "as"),
    )
)

LOGISTIC = register_normalizer(
    Normalizer(
        name="logistic",
        label="Logistic",
        transform=_logistic,
        description="Sigmoid activation of each value.",
        aliases=("sigmoid",),
    )
)

TANH = register_normalizer(
    Normalizer(
        name="tanh",
        label="Tanh",
        transform=np.tanh,
        description="Hyperbolic tangent activation of each value.",
        aliases=("hyperbolictangent",),
    )
)

def make_minmax_range(low: float, high: float) -> Normalizer:
    """Eq. (3) factory: MinMax into an arbitrary ``[low, high]`` range.

    The paper notes many measures "cannot deal with zero values and,
    therefore, scaling time series between an arbitrary set of values
    [a, b] is often preferred"; the returned normalizer can be registered
    for such sweeps (e.g. ``make_minmax_range(0.1, 1.0)`` keeps every
    value strictly positive for the probability-style measures).
    """
    if not high > low:
        raise ValueError(f"need high > low, got [{low}, {high}]")

    def transform(X: np.ndarray) -> np.ndarray:
        return _minmax(X, low, high)

    return Normalizer(
        name=f"minmax[{low:g},{high:g}]",
        label=f"MinMax[{low:g},{high:g}]",
        transform=transform,
        description=f"Scale values into [{low:g}, {high:g}] (Eq. 3).",
    )


#: The 8 methods of Section 4 in paper order (Figure 1 panels).
PAPER_NORMALIZATIONS: tuple[str, ...] = (
    "zscore",
    "minmax",
    "meannorm",
    "mediannorm",
    "unitlength",
    "adaptive",
    "logistic",
    "tanh",
)
