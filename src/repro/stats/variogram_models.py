"""Parametric variogram models and least-squares range estimation.

The paper fits the squared-exponential (often called "Gaussian") variogram

.. math::

    \\gamma(h) = c_0 \\left(1 - \\exp(-h^2 / a^2)\\right)

to the empirical variogram by least squares and reports the fitted *range*
``a`` (the distance beyond which spatial correlation essentially vanishes).
This module implements that fit plus the exponential and spherical
families and an optional nugget term, mirroring what the ``gstat`` R
package provides.

The headline public entry point is :func:`estimate_variogram_range`, which
goes straight from a 2D field to the fitted range — this is the statistic
on the x-axis of the paper's Figures 3 and 4.

Every model is ``nugget + sill * f(h / range)``, so the fit is separable:
:func:`fit_variogram_batch` solves sill and nugget in closed form for each
candidate range and searches ``log(range)`` only, for a whole batch of
variograms (the windows of the local statistics) at once.  The values are
scaled by the initial sill estimate first, so the fitted range does not
change when the field is multiplied by a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.stats.variogram import EmpiricalVariogram, VariogramConfig, empirical_variogram
from repro.utils.validation import ensure_in

__all__ = [
    "VariogramModel",
    "FittedVariogram",
    "gaussian_variogram",
    "exponential_variogram",
    "spherical_variogram",
    "fit_variogram",
    "fit_variogram_batch",
    "estimate_variogram_range",
    "MODEL_FUNCTIONS",
]


def _gaussian_shape(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``1 - exp(-u^2)`` and its derivative with respect to ``log(range)``."""

    u2 = u * u
    return -np.expm1(-u2), -2.0 * u2 * np.exp(-u2)


def _exponential_shape(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``1 - exp(-u)`` and its derivative with respect to ``log(range)``."""

    return -np.expm1(-u), -u * np.exp(-u)


def _spherical_shape(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``1.5 u - 0.5 u^3`` capped at 1, and its derivative w.r.t. ``log(range)``."""

    ratio = np.clip(u, 0.0, 1.0)
    return 1.5 * ratio - 0.5 * ratio**3, 1.5 * ratio * (ratio * ratio - 1.0)


#: Every model is ``nugget + sill * shape(h / range)``; the fit only needs
#: the shape and its slope in ``log(range)``.
_SHAPES: Dict[str, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = {
    "gaussian": _gaussian_shape,
    "exponential": _exponential_shape,
    "spherical": _spherical_shape,
}


def gaussian_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Squared-exponential ("Gaussian") variogram — the paper's model."""

    return nugget + sill * _gaussian_shape(np.asarray(h, dtype=np.float64) / range_)[0]


def exponential_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Exponential variogram ``nugget + sill * (1 - exp(-h / range))``."""

    return nugget + sill * _exponential_shape(np.asarray(h, dtype=np.float64) / range_)[0]


def spherical_variogram(h: np.ndarray, sill: float, range_: float, nugget: float = 0.0) -> np.ndarray:
    """Spherical variogram: reaches the sill exactly at ``range``."""

    return nugget + sill * _spherical_shape(np.asarray(h, dtype=np.float64) / range_)[0]


MODEL_FUNCTIONS: Dict[str, Callable[..., np.ndarray]] = {
    "gaussian": gaussian_variogram,
    "exponential": exponential_variogram,
    "spherical": spherical_variogram,
}

#: Alias accepted for the paper's model name.
VariogramModel = str


@dataclass(frozen=True)
class FittedVariogram:
    """Result of a parametric variogram fit.

    Attributes
    ----------
    model:
        Name of the fitted family (``"gaussian"``, ``"exponential"``,
        ``"spherical"``).
    sill:
        Fitted partial sill :math:`c_0`.
    range:
        Fitted range ``a`` — the statistic the paper regresses CR against.
    nugget:
        Fitted nugget (0 when fitted without a nugget term).
    rmse:
        Root-mean-square misfit between the empirical and fitted variogram.
    converged:
        Whether the range search reached its tolerance (or stopped at a
        bound of the search range).
    """

    model: str
    sill: float
    range: float
    nugget: float
    rmse: float
    converged: bool

    def __call__(self, h: np.ndarray) -> np.ndarray:
        """Evaluate the fitted variogram at distances ``h``."""

        return MODEL_FUNCTIONS[self.model](np.asarray(h), self.sill, self.range, self.nugget)

    @property
    def effective_range(self) -> float:
        """Distance at which the model reaches 95% of the sill."""

        if self.model == "spherical":
            return self.range
        if self.model == "exponential":
            return float(self.range * np.log(20.0))
        return float(self.range * np.sqrt(np.log(20.0)))


class BatchFit(NamedTuple):
    """Per-variogram parameters of :func:`fit_variogram_batch` (arrays)."""

    sill: np.ndarray
    range: np.ndarray
    nugget: np.ndarray
    rmse: np.ndarray
    converged: np.ndarray


#: Bounds of the fit.  The range lives in ``[_MIN_RANGE, 10 * lags[-1]]``;
#: sill and nugget are relative to the initial sill estimate.
_MIN_RANGE = 1e-6
_MIN_SILL = 1e-12
#: Spacing of the coarse ``log(range)`` grid and the refinement tolerance
#: (both in ``log(range)``, i.e. relative in the range).
_GRID_STEP = 0.1
_LOG_TOLERANCE = 1e-10


def _cost(sill, nugget, s_ff, s_f, s_1, s_fv, s_v):
    """``sum w (nugget + sill f - v)^2`` less its constant ``sum w v^2``."""

    return (
        sill * (sill * s_ff - 2.0 * s_fv)
        + nugget * (nugget * s_1 - 2.0 * s_v)
        + 2.0 * sill * nugget * s_f
    )


def _amplitudes(s_ff, s_f, s_1, s_fv, s_v, fit_nugget: bool):
    """Best ``(sill, nugget)`` for fixed shapes ``f``, from the weighted moments
    ``s_ff = sum w f^2``, ``s_f = sum w f``, ``s_1 = sum w``, ``s_fv = sum w f v``
    and ``s_v = sum w v``.

    The objective is a quadratic in two variables with ``sill >= _MIN_SILL``
    and ``0 <= nugget <= 1``: take the interior solution when feasible, else
    the best one-variable solution on the three edges of the feasible
    half-strip.
    """

    def sill_for(nugget):
        return np.maximum((s_fv - nugget * s_f) / s_ff, _MIN_SILL)

    if not fit_nugget:
        return sill_for(0.0), np.zeros_like(s_fv)

    edges = [
        (np.full_like(s_fv, _MIN_SILL), np.clip((s_v - _MIN_SILL * s_f) / s_1, 0.0, 1.0)),
        (sill_for(0.0), np.zeros_like(s_fv)),
        (sill_for(1.0), np.ones_like(s_fv)),
    ]
    costs = [_cost(sill, nugget, s_ff, s_f, s_1, s_fv, s_v) for sill, nugget in edges]
    best = np.argmin(costs, axis=0)
    sill = np.choose(best, [edge[0] for edge in edges])
    nugget = np.choose(best, [edge[1] for edge in edges])

    det = s_ff * s_1 - s_f * s_f
    with np.errstate(divide="ignore", invalid="ignore"):
        inner_sill = (s_fv * s_1 - s_v * s_f) / det
        inner_nugget = (s_ff * s_v - s_f * s_fv) / det
    inside = (
        (det > 1e-12 * s_ff * s_1)
        & (inner_sill >= _MIN_SILL)
        & (inner_nugget >= 0.0)
        & (inner_nugget <= 1.0)
    )
    return np.where(inside, inner_sill, sill), np.where(inside, inner_nugget, nugget)


def fit_variogram_batch(
    lags: np.ndarray,
    values: np.ndarray,
    pair_counts: np.ndarray,
    field_variances: np.ndarray,
    model: str = "gaussian",
    *,
    fit_nugget: bool = False,
    weights: str = "pairs",
) -> BatchFit:
    """Weighted least-squares fits of one model to a batch of variograms.

    All variograms share ``lags`` and ``pair_counts`` (windows of one shape);
    ``values`` is ``(W, n_bins)`` and ``field_variances`` is ``(W,)``.  The
    fit is separable: for a fixed range the best ``(sill, nugget)`` has a
    closed form (:func:`_amplitudes`), so only the range is searched, for
    the whole batch at once — a coarse ``log(range)`` grid over
    ``[1e-6, 10 * lags[-1]]``, then bisection on the sign of the reduced
    objective's derivative inside the bracket around the grid minimum,
    down to a relative tolerance of 1e-10.  Values are divided by the
    initial sill estimate ``max(field variance, max value)`` first, so the
    fitted range does not depend on the field's units.
    """

    ensure_in(model, tuple(MODEL_FUNCTIONS), "model")
    ensure_in(weights, ("pairs", "uniform"), "weights")
    lags = np.asarray(lags, dtype=np.float64)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    counts = np.asarray(pair_counts, dtype=np.float64)
    if lags.size < 3:
        raise ValueError("need at least 3 variogram bins to fit a model")
    max_range = float(lags[-1]) * 10.0
    if not max_range > _MIN_RANGE:
        raise ValueError(f"largest lag {lags[-1]!r} is too small to bound the range")

    shape = _SHAPES[model]
    # Weight of each squared residual.
    w = counts / counts.max() if weights == "pairs" else np.ones_like(lags)
    scale = np.maximum(np.asarray(field_variances, dtype=np.float64), values.max(axis=1))
    scale = np.where(scale > 0.0, scale, 1.0)
    v = values / scale[:, None]
    wv = w * v
    s_1, s_v, s_vv = w.sum(), wv.sum(axis=1), (wv * v).sum(axis=1)

    # Coarse grid: every moment is a (W, n_bins) @ (n_bins, G) product.
    lo_x, hi_x = np.log(_MIN_RANGE), np.log(max_range)
    grid = np.linspace(lo_x, hi_x, int(np.ceil((hi_x - lo_x) / _GRID_STEP)) + 1)
    f, df = shape(lags / np.exp(grid)[:, None])
    wf = w * f
    s_f, s_ff, s_fv = wf.sum(axis=1), (wf * f).sum(axis=1), wv @ f.T
    sill, nugget = _amplitudes(s_ff, s_f, s_1, s_fv, s_v[:, None], fit_nugget)
    cost = s_vv[:, None] + _cost(sill, nugget, s_ff, s_f, s_1, s_fv, s_v[:, None])
    # Sign of d cost / d log(range): sill * sum(w df (nugget + sill f - v)).
    slope = nugget * (w * df).sum(axis=1) + sill * (wf * df).sum(axis=1) - wv @ df.T

    rows = np.arange(len(v))
    best = np.argmin(cost, axis=1)
    best_slope = slope[rows, best]
    left = np.maximum(best - 1, 0)
    right = np.minimum(best + 1, grid.size - 1)
    # The minimum lies left of the best grid point when the cost rises there.
    rising = best_slope > 0
    lo = np.where(rising, grid[left], grid[best])
    hi = np.where(rising, grid[best], grid[right])
    bracketed = np.where(rising, slope[rows, left] < 0, slope[rows, right] > 0) & (lo < hi)
    # Otherwise the grid point is a bound (or a flat stretch) of the search.
    at_bound = ~bracketed & ((best_slope == 0) | (lo == hi))

    def evaluate(x):
        """Amplitudes, residuals and slope sign term at ``log(range) = x``."""

        fx, dfx = shape(lags / np.exp(x)[:, None])
        wfx = w * fx
        sill, nugget = _amplitudes(
            (wfx * fx).sum(axis=1), wfx.sum(axis=1), s_1, (wfx * v).sum(axis=1), s_v, fit_nugget
        )
        residual = nugget[:, None] + sill[:, None] * fx - v
        return sill, nugget, residual, (w * dfx * residual).sum(axis=1)

    for _ in range(int(np.ceil(np.log2(_GRID_STEP / _LOG_TOLERANCE)))):
        mid = 0.5 * (lo + hi)
        rises = evaluate(mid)[3] > 0
        hi = np.where(rises, mid, hi)
        lo = np.where(rises, lo, mid)
    x = np.where(bracketed, 0.5 * (lo + hi), grid[best])
    sill, nugget, residual, _ = evaluate(x)
    # Safeguard: never return worse than the best grid point.
    worse = (w * residual * residual).sum(axis=1) > cost[rows, best] + s_vv * 1e-12
    if worse.any():
        x = np.where(worse, grid[best], x)
        sill, nugget, residual, _ = evaluate(x)

    rmse = np.sqrt(np.mean(residual * residual, axis=1)) * scale
    return BatchFit(
        sill=sill * scale,
        range=np.exp(x),
        nugget=nugget * scale,
        rmse=rmse,
        converged=(bracketed & ~worse) | at_bound,
    )


def fit_variogram(
    variogram: EmpiricalVariogram,
    model: str = "gaussian",
    *,
    fit_nugget: bool = False,
    weights: str = "pairs",
) -> FittedVariogram:
    """Least-squares fit of a parametric model to an empirical variogram.

    The batch-of-one case of :func:`fit_variogram_batch`.

    Parameters
    ----------
    variogram:
        Output of :func:`repro.stats.variogram.empirical_variogram`.
    model:
        Parametric family; the paper uses ``"gaussian"`` (squared
        exponential).
    fit_nugget:
        Include a nugget parameter.  The paper's synthetic fields have no
        measurement noise so the default is nugget-free.
    weights:
        ``"pairs"`` weights squared residuals by the pair count per bin
        (more pairs = more reliable bin), ``"uniform"`` uses no
        weighting — matching an ordinary least squares fit.
    """

    fit = fit_variogram_batch(
        variogram.lags,
        np.asarray(variogram.values, dtype=np.float64)[None],
        variogram.pair_counts,
        np.array([variogram.field_variance]),
        model,
        fit_nugget=fit_nugget,
        weights=weights,
    )
    return FittedVariogram(
        model=model,
        sill=float(fit.sill[0]),
        range=float(fit.range[0]),
        nugget=float(fit.nugget[0]),
        rmse=float(fit.rmse[0]),
        converged=bool(fit.converged[0]),
    )


def estimate_variogram_range(
    field: np.ndarray,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
    fit_nugget: bool = False,
) -> float:
    """Estimate the (global) variogram range of a 2D field.

    This is the "Estimated global variogram range" of the paper's
    Figures 3 and 4: empirical variogram via Eq. (1), then a least-squares
    fit of the squared-exponential model, returning the fitted range ``a``.
    Raises ``ValueError`` for a field with NaN or infinite values.
    """

    variogram = empirical_variogram(field, config=config)
    fitted = fit_variogram(variogram, model=model, fit_nugget=fit_nugget)
    return fitted.range
