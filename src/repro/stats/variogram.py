"""Empirical (semi-)variogram estimation for gridded fields.

The paper's Eq. (1) is the classical Matheron estimator

.. math::

    \\gamma(h) = \\frac{1}{2 N(h)} \\sum_{|x_i - x_j| = h} (z(x_i) - z(x_j))^2

computed over grid-point pairs at (binned) Euclidean distance ``h``.

Two estimation strategies are provided:

``method="fft"`` (default)
    Exact enumeration of *all* pairs.  For a gridded field the sum of
    squared differences at every integer offset ``d`` is one inverse real
    FFT of ``2 Re(F(z^2) conj(F(1))) - 2 |F(z)|^2``, so each field costs two
    forward transforms (of ``z`` and ``z^2``) and one inverse; the transform
    of the ones array, the offsets, their bins and the exact pair counts
    ``prod(n_k - |d_k|)`` depend only on the shape and are cached.  Each
    axis is padded just enough that no used offset wraps around.  The
    estimator is dimension-general and batched: :func:`variogram_fft_batch`
    takes a stack of same-shape 2D or 3D fields (the windows of the local
    statistics, a 3D volume) and bins all of them with one ``bincount``.
    This is both faster and statistically better (no sampling noise) than
    pair subsampling and is what the library uses everywhere by default.

``method="pairs"``
    Monte-Carlo subsampling of point pairs, the approach typically used for
    scattered (non-gridded) data; kept as an independent cross-check and for
    the ablation study on estimator sampling
    (``benchmarks/test_ablation_variogram_sampling.py``).

Fields with NaN or infinite values have no variogram: the estimators raise
``ValueError`` for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.fft as sfft

from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import ensure_2d, ensure_float_array, ensure_in, ensure_positive

__all__ = ["VariogramConfig", "EmpiricalVariogram", "empirical_variogram", "variogram_fft_batch"]


@dataclass(frozen=True)
class VariogramConfig:
    """Configuration of the empirical variogram estimator.

    Attributes
    ----------
    max_lag:
        Largest pair distance considered.  ``None`` uses half the smaller
        field dimension, the standard geostatistical rule of thumb (beyond
        that the number of available pairs collapses and the estimate is
        noisy).
    bin_width:
        Width of the distance bins; 1.0 gives (approximately) one bin per
        integer lag on a unit grid.
    method:
        ``"fft"`` or ``"pairs"`` (see module docstring).
    n_pairs:
        Number of random pairs drawn when ``method="pairs"``.
    min_pairs_per_bin:
        Bins with fewer pairs than this are dropped from the output.
    """

    max_lag: Optional[float] = None
    bin_width: float = 1.0
    method: str = "fft"
    n_pairs: int = 100_000
    min_pairs_per_bin: int = 1

    def __post_init__(self) -> None:
        if self.max_lag is not None:
            ensure_positive(self.max_lag, "max_lag")
        ensure_positive(self.bin_width, "bin_width")
        ensure_in(self.method, ("fft", "pairs"), "method")
        ensure_positive(self.n_pairs, "n_pairs")
        ensure_positive(self.min_pairs_per_bin, "min_pairs_per_bin")


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Result of an empirical variogram estimation.

    Attributes
    ----------
    lags:
        Centre distance of each bin.
    values:
        Semi-variogram value :math:`\\gamma(h)` per bin.
    pair_counts:
        Number of point pairs contributing to each bin.
    field_variance:
        Sample variance of the field, a natural reference for the sill.
    """

    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray
    field_variance: float

    def __post_init__(self) -> None:
        if not (len(self.lags) == len(self.values) == len(self.pair_counts)):
            raise ValueError("lags, values and pair_counts must have equal length")

    @property
    def n_bins(self) -> int:
        return len(self.lags)


def _resolve_max_lag(shape: Tuple[int, ...], max_lag: Optional[float]) -> float:
    if max_lag is not None:
        return float(max_lag)
    return float(min(shape) // 2)


def ensure_finite_field(field: np.ndarray, name: str = "field") -> None:
    """Raise ``ValueError`` when ``field`` holds NaN or infinite values.

    Squared differences of non-finite values are undefined, so no variogram
    (and no fitted range) exists for such a field.
    """

    if not np.isfinite(field).all():
        raise ValueError(f"{name} contains non-finite values; its variogram is undefined")


@dataclass(frozen=True)
class LagGeometry:
    """Shape-only part of the FFT estimator, shared by every field of a shape.

    ``offset_index`` holds, for every half-space offset ``d`` with
    ``0 < |d| <= max_lag`` whose bin keeps at least ``min_pairs_per_bin``
    pairs, its flat position in the (padded) correlation array and
    ``offset_bin`` its output bin.  ``lags`` and ``pair_counts`` describe
    the kept bins; ``ones_spectrum`` is the real FFT of the all-ones field.
    """

    fft_shape: Tuple[int, ...]
    offset_index: np.ndarray
    offset_bin: np.ndarray
    lags: np.ndarray
    pair_counts: np.ndarray
    ones_spectrum: np.ndarray


@functools.lru_cache(maxsize=16)
def lag_geometry(
    shape: Tuple[int, ...], max_lag: float, bin_width: float, min_pairs_per_bin: int
) -> LagGeometry:
    """Offsets, bins, pair counts and padded FFT shape for fields of ``shape``.

    An axis of length ``n`` is padded to ``next_fast_len(n + L)`` with
    ``L = min(n - 1, floor(max_lag))``, the shortest length at which the
    circular correlation has no wrap-around at any used offset.  Pair
    counts are exact: an offset ``d`` pairs ``prod(n_k - |d_k|)`` points.
    """

    reach = [min(n - 1, int(np.floor(max_lag))) for n in shape]
    fft_shape = tuple(sfft.next_fast_len(n + r, real=True) for n, r in zip(shape, reach))
    axes = np.meshgrid(*(np.arange(-r, r + 1) for r in reach), indexing="ij", sparse=True)
    dist = np.sqrt(sum(d.astype(np.float64) ** 2 for d in axes))
    count = functools.reduce(
        np.multiply, [(n - np.abs(d)).astype(np.float64) for n, d in zip(shape, axes)]
    )
    # Offsets d and -d pair the same points: keep the half-space whose first
    # non-zero coordinate is positive so each unordered pair counts once.
    half_space = np.zeros(dist.shape, dtype=bool)
    leading_zero = np.ones(dist.shape, dtype=bool)
    for d in axes:
        half_space |= leading_zero & (d > 0)
        leading_zero = leading_zero & (d == 0)
    keep = half_space & (dist <= max_lag)
    flat = np.ravel_multi_index(
        [np.broadcast_to(d % p, dist.shape)[keep] for d, p in zip(axes, fft_shape)], fft_shape
    )
    dist, count = dist[keep], count[keep]

    n_bins = int(np.ceil(max_lag / bin_width))
    # repro-lint: disable=unsafe-cast -- lag distances are norms of finite integer grid offsets and bin_width is validated positive
    bins = np.minimum((dist / bin_width).astype(np.int64), n_bins - 1)
    bin_counts = np.bincount(bins, weights=count, minlength=n_bins)
    bin_dist = np.bincount(bins, weights=dist * count, minlength=n_bins)
    valid = bin_counts >= min_pairs_per_bin
    rank = np.cumsum(valid) - 1
    used = valid[bins]

    ones = np.zeros(fft_shape)
    ones[tuple(slice(0, n) for n in shape)] = 1.0
    geometry = LagGeometry(
        fft_shape=fft_shape,
        offset_index=flat[used],
        offset_bin=rank[bins[used]],
        lags=bin_dist[valid] / bin_counts[valid],
        pair_counts=bin_counts[valid].astype(np.int64),
        ones_spectrum=sfft.rfftn(ones),
    )
    for array in (geometry.offset_index, geometry.offset_bin, geometry.lags,
                  geometry.pair_counts, geometry.ones_spectrum):
        array.flags.writeable = False
    return geometry


def variogram_fft_batch(
    fields: np.ndarray, max_lag: float, config: VariogramConfig
) -> Tuple[LagGeometry, np.ndarray, np.ndarray]:
    """Matheron estimator for a stack ``(W, *shape)`` of same-shape fields.

    Returns the shared lag geometry, the ``(W, n_bins)`` semi-variogram
    values and the ``(W,)`` field variances.  For every offset ``d`` the sum
    of ``(z(x) - z(x + d))**2`` over valid ``x`` is the inverse transform of
    ``2 Re(F(z^2) conj(F(1))) - 2 |F(z)|^2``: two forward transforms per
    field, one inverse, and the cached transform of the ones array.
    """

    fields = np.asarray(fields, dtype=np.float64)
    shape = fields.shape[1:]
    axes = tuple(range(1, fields.ndim))
    geometry = lag_geometry(shape, max_lag, config.bin_width, config.min_pairs_per_bin)
    variances = fields.var(axis=axes)
    # Squared differences are shift invariant; removing the mean first keeps
    # the FFT cancellation error small (a constant field yields exactly 0).
    centred = fields - fields.mean(axis=axes, keepdims=True)
    z_hat = sfft.rfftn(centred, s=geometry.fft_shape, axes=axes)
    sq_hat = sfft.rfftn(centred * centred, s=geometry.fft_shape, axes=axes)
    ones_hat = geometry.ones_spectrum
    spectrum = (
        sq_hat.real * ones_hat.real + sq_hat.imag * ones_hat.imag
        - z_hat.real * z_hat.real - z_hat.imag * z_hat.imag
    )
    half_sums = sfft.irfftn(spectrum, s=geometry.fft_shape, axes=axes)
    half_sums = half_sums.reshape(len(fields), -1)[:, geometry.offset_index]
    np.clip(half_sums, 0.0, None, out=half_sums)  # clip FFT round-off

    n_bins = geometry.lags.size
    # One bincount over (field, bin) rows; half_sums already holds half of
    # each sum of squares, so dividing by N(h) gives Eq. (1).
    rows = np.arange(len(fields))[:, None] * n_bins + geometry.offset_bin
    bin_sums = np.bincount(
        rows.ravel(), weights=half_sums.ravel(), minlength=len(fields) * n_bins
    )
    values = bin_sums.reshape(len(fields), n_bins) / geometry.pair_counts
    return geometry, values, variances


def _variogram_fft(field: np.ndarray, config: VariogramConfig) -> EmpiricalVariogram:
    field = ensure_float_array(field, "field")
    max_lag = _resolve_max_lag(field.shape, config.max_lag)
    geometry, values, variances = variogram_fft_batch(field[None], max_lag, config)
    return EmpiricalVariogram(
        lags=geometry.lags.copy(),
        values=values[0],
        pair_counts=geometry.pair_counts.copy(),
        field_variance=float(variances[0]),
    )


def _variogram_pairs(
    field: np.ndarray, config: VariogramConfig, seed: SeedLike = None
) -> EmpiricalVariogram:
    field = ensure_float_array(field, "field")
    rows, cols = field.shape
    max_lag = _resolve_max_lag(field.shape, config.max_lag)
    rng = make_rng(seed)

    n_points = rows * cols
    n_pairs = int(min(config.n_pairs, n_points * (n_points - 1) // 2))
    idx_a = rng.integers(0, n_points, size=n_pairs)
    idx_b = rng.integers(0, n_points, size=n_pairs)
    keep = idx_a != idx_b
    idx_a, idx_b = idx_a[keep], idx_b[keep]

    ra, ca = np.divmod(idx_a, cols)
    rb, cb = np.divmod(idx_b, cols)
    dist = np.sqrt((ra - rb) ** 2.0 + (ca - cb) ** 2.0)
    in_range = (dist > 0) & (dist <= max_lag)
    dist = dist[in_range]
    za = field[ra[in_range], ca[in_range]]
    zb = field[rb[in_range], cb[in_range]]
    sq_diff = (za - zb) ** 2

    n_bins = int(np.ceil(max_lag / config.bin_width))
    # repro-lint: disable=unsafe-cast -- lag distances are norms of finite integer grid offsets and bin_width is validated positive
    bin_index = np.minimum((dist / config.bin_width).astype(np.int64), n_bins - 1)
    bin_sums = np.bincount(bin_index, weights=sq_diff, minlength=n_bins)
    bin_counts = np.bincount(bin_index, minlength=n_bins)
    bin_dist_sum = np.bincount(bin_index, weights=dist, minlength=n_bins)

    valid = bin_counts >= config.min_pairs_per_bin
    gamma = np.zeros(n_bins)
    gamma[valid] = bin_sums[valid] / (2.0 * bin_counts[valid])
    lag_centres = np.zeros(n_bins)
    lag_centres[valid] = bin_dist_sum[valid] / bin_counts[valid]

    return EmpiricalVariogram(
        lags=lag_centres[valid],
        values=gamma[valid],
        pair_counts=bin_counts[valid].astype(np.int64),
        field_variance=float(field.var()),
    )


def empirical_variogram(
    field: np.ndarray,
    config: VariogramConfig | None = None,
    seed: SeedLike = None,
) -> EmpiricalVariogram:
    """Estimate the empirical semi-variogram of a 2D field.

    Parameters
    ----------
    field:
        2D array of the studied variable (e.g. a velocityx slice).
    config:
        Estimator configuration; defaults to the exact FFT method with unit
        lag bins up to half the smaller field dimension.
    seed:
        Only used by the ``"pairs"`` method for pair subsampling.
    """

    field = ensure_2d(field, "field")
    config = config or VariogramConfig()
    if min(field.shape) < 2:
        raise ValueError("field must be at least 2x2 to form point pairs")
    ensure_finite_field(field)
    if config.method == "fft":
        return _variogram_fft(field, config)
    return _variogram_pairs(field, config, seed=seed)
