"""Local (windowed) variogram statistics.

The global variogram range summarises an *average* correlation range of the
whole field; it cannot express spatial heterogeneity or the coexistence of
several correlation scales.  The paper therefore estimates the variogram
range inside every ``H x H`` window tiling the field (H = 32) and reports
the **standard deviation of the local ranges** — "Std estimated of local
variogram range (H=32)" — as a measure of the spatial diversity of local
correlation.  That statistic is the x-axis of Figure 5 and the left column
of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.stats.variogram import (
    VariogramConfig,
    _resolve_max_lag,
    lag_geometry,
    variogram_fft_batch,
)
from repro.stats.variogram_models import MODEL_FUNCTIONS, fit_variogram_batch
from repro.utils.validation import ensure_2d, ensure_in, ensure_positive

__all__ = ["LocalVariogramResult", "local_variogram_ranges", "std_local_variogram_range"]


@dataclass(frozen=True)
class LocalVariogramResult:
    """Per-window variogram ranges and their summary statistics.

    Attributes
    ----------
    window:
        Window size H used for the tiling.
    ranges:
        2D array of fitted ranges, one per complete window (NaN where the
        fit failed or the window was degenerate, e.g. constant data).
    """

    window: int
    ranges: np.ndarray

    @property
    def valid_ranges(self) -> np.ndarray:
        """Fitted ranges with failed windows removed."""

        flat = self.ranges.ravel()
        return flat[np.isfinite(flat)]

    @property
    def mean(self) -> float:
        """Mean local variogram range."""

        valid = self.valid_ranges
        return float(valid.mean()) if valid.size else float("nan")

    @property
    def std(self) -> float:
        """Standard deviation of the local variogram ranges (the paper's statistic)."""

        valid = self.valid_ranges
        return float(valid.std()) if valid.size else float("nan")

    @property
    def n_windows(self) -> int:
        return int(self.ranges.size)

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.ranges)))


#: Spectrum bytes (one complex half spectrum per window) a batch of windows
#: may hold; bounds the estimator's working set to a few times this.
_BATCH_SPECTRUM_BYTES = 16 << 20


def _window_stack(field: np.ndarray, window: int, grid: Tuple[int, ...]) -> np.ndarray:
    """All complete ``window``-sized tiles of ``field`` as one ``(n, *tile)`` stack."""

    ndim = field.ndim
    cropped = field[tuple(slice(0, g * window) for g in grid)]
    split = cropped.reshape([n for g in grid for n in (g, window)])
    order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
    return np.ascontiguousarray(split.transpose(order), dtype=np.float64).reshape(
        (-1,) + (window,) * ndim
    )


def windowed_variogram_ranges(
    field: np.ndarray,
    window: int,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> LocalVariogramResult:
    """Fitted range inside every complete ``window`` tile of a 2D or 3D field.

    The shared N-d path of :func:`local_variogram_ranges` and
    :func:`repro.stats.variogram3d.local_variogram_ranges_3d`: collect the
    finite, non-constant windows, then estimate and fit them in batches
    whose spectra stay within a fixed byte budget.
    """

    ensure_positive(window, "window")
    ensure_in(model, tuple(MODEL_FUNCTIONS), "model")
    grid = tuple(length // window for length in field.shape)
    if min(grid) == 0:
        raise ValueError(
            f"field shape {field.shape} has no complete "
            f"{'x'.join([str(window)] * field.ndim)} windows"
        )
    if config is None:
        # Local windows are small; a max lag of half the window keeps enough
        # pairs per bin for a stable fit.
        config = VariogramConfig(max_lag=window / 2.0, bin_width=1.0)
    if config.method != "fft":
        raise ValueError(
            "windowed variogram ranges use the exact FFT estimator (method='fft')"
        )
    max_lag = _resolve_max_lag((window,) * field.ndim, config.max_lag)

    stack = _window_stack(field, window, grid)
    flat = stack.reshape(len(stack), -1)
    # Windows with non-finite values have no variogram, and (numerically)
    # constant ones carry no correlation information: both stay NaN.
    usable = np.isfinite(flat).all(axis=1)
    usable[usable] = flat[usable].std(axis=1) >= 1e-15
    ranges = np.full(len(stack), np.nan)
    todo = np.flatnonzero(usable)
    if todo.size:
        geometry = lag_geometry(
            stack.shape[1:], max_lag, config.bin_width, config.min_pairs_per_bin
        )
        # Too few bins to fit a model: every window stays NaN.
        if geometry.lags.size >= 3:
            batch = max(1, _BATCH_SPECTRUM_BYTES // geometry.ones_spectrum.nbytes)
            for start in range(0, todo.size, batch):
                chosen = todo[start : start + batch]
                geometry, values, variances = variogram_fft_batch(
                    stack[chosen], max_lag, config
                )
                ranges[chosen] = fit_variogram_batch(
                    geometry.lags, values, geometry.pair_counts, variances, model
                ).range
    return LocalVariogramResult(window=window, ranges=ranges.reshape(grid))


def local_variogram_ranges(
    field: np.ndarray,
    window: int = 32,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> LocalVariogramResult:
    """Estimate the variogram range inside every complete ``window`` tile.

    Windows whose data are (numerically) constant carry no correlation
    information and yield NaN, as do windows holding NaN or infinite
    values; they are excluded from the summary statistics, mirroring how
    degenerate windows are dropped in practice.
    """

    return windowed_variogram_ranges(ensure_2d(field, "field"), window, model=model, config=config)


def std_local_variogram_range(
    field: np.ndarray,
    window: int = 32,
    *,
    model: str = "gaussian",
    config: Optional[VariogramConfig] = None,
) -> float:
    """The paper's local statistic: std of the windowed variogram ranges."""

    return local_variogram_ranges(field, window, model=model, config=config).std
