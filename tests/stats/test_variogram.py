"""Tests for repro.stats.variogram."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.covariance import SquaredExponentialCovariance
from repro.datasets.gaussian import generate_gaussian_field
from repro.stats.variogram import (
    EmpiricalVariogram,
    VariogramConfig,
    _variogram_fft,
    empirical_variogram,
    variogram_fft_batch,
)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            VariogramConfig(max_lag=-1.0)
        with pytest.raises(ValueError):
            VariogramConfig(bin_width=0.0)
        with pytest.raises(ValueError):
            VariogramConfig(method="magic")
        with pytest.raises(ValueError):
            VariogramConfig(n_pairs=0)


class TestResultInvariants:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalVariogram(
                lags=np.array([1.0, 2.0]),
                values=np.array([0.1]),
                pair_counts=np.array([5, 5]),
                field_variance=1.0,
            )


class TestFFTEstimator:
    def test_constant_field_has_zero_variogram(self):
        field = np.full((32, 32), 3.7)
        result = empirical_variogram(field)
        np.testing.assert_allclose(result.values, 0.0, atol=1e-20)

    def test_values_are_non_negative(self, smooth_field):
        result = empirical_variogram(smooth_field)
        assert np.all(result.values >= 0)

    def test_lags_within_max_lag_and_increasing(self, smooth_field):
        config = VariogramConfig(max_lag=20.0)
        result = empirical_variogram(smooth_field, config)
        assert result.lags.max() <= 20.0 + 1e-9
        assert np.all(np.diff(result.lags) > 0)

    def test_default_max_lag_is_half_min_dimension(self):
        field = np.random.default_rng(0).normal(size=(40, 60))
        result = empirical_variogram(field)
        assert result.lags.max() <= 20.0 + 1e-9

    def test_white_noise_sill_matches_variance(self, white_noise_field):
        result = empirical_variogram(white_noise_field)
        # For uncorrelated data the semi-variogram equals the variance at
        # every positive lag.
        np.testing.assert_allclose(
            result.values.mean(), white_noise_field.var(), rtol=0.1
        )

    def test_matches_brute_force_on_small_field(self):
        rng = np.random.default_rng(3)
        field = rng.normal(size=(7, 6))
        config = VariogramConfig(max_lag=4.0, bin_width=1.0)
        result = empirical_variogram(field, config)

        # Brute-force Matheron estimator over all pairs.
        rows, cols = field.shape
        coords = [(i, j) for i in range(rows) for j in range(cols)]
        n_bins = int(np.ceil(4.0 / 1.0))
        sums = np.zeros(n_bins)
        counts = np.zeros(n_bins)
        for a in range(len(coords)):
            for b in range(a + 1, len(coords)):
                (i1, j1), (i2, j2) = coords[a], coords[b]
                dist = np.hypot(i1 - i2, j1 - j2)
                if 0 < dist <= 4.0:
                    bin_idx = min(int(dist / 1.0), n_bins - 1)
                    sums[bin_idx] += (field[i1, j1] - field[i2, j2]) ** 2
                    counts[bin_idx] += 1
        expected = sums[counts > 0] / (2.0 * counts[counts > 0])
        np.testing.assert_allclose(result.values, expected, rtol=1e-10)
        np.testing.assert_allclose(result.pair_counts, counts[counts > 0])

    def test_shift_invariance(self, smooth_field):
        base = empirical_variogram(smooth_field)
        shifted = empirical_variogram(smooth_field + 100.0)
        np.testing.assert_allclose(base.values, shifted.values, rtol=1e-8, atol=1e-10)

    def test_scaling_by_constant_scales_variogram_quadratically(self, smooth_field):
        base = empirical_variogram(smooth_field)
        scaled = empirical_variogram(3.0 * smooth_field)
        np.testing.assert_allclose(scaled.values, 9.0 * base.values, rtol=1e-8)

    def test_smooth_field_has_smaller_short_lag_variogram(self, smooth_field, rough_field):
        smooth = empirical_variogram(smooth_field)
        rough = empirical_variogram(rough_field)
        assert smooth.values[0] < rough.values[0]

    def test_theoretical_shape_recovered(self):
        # gamma(h)/sill should follow 1 - exp(-(h/a)^2) reasonably well.
        a = 10.0
        field = generate_gaussian_field((128, 128), a, seed=11)
        result = empirical_variogram(field, VariogramConfig(max_lag=30.0))
        model = SquaredExponentialCovariance(range=a, variance=field.var())
        expected = model.semivariogram(result.lags)
        # Allow generous tolerance: single realisation, finite domain.
        correlation = np.corrcoef(result.values, expected)[0, 1]
        assert correlation > 0.97

    def test_rejects_tiny_fields(self):
        with pytest.raises(ValueError):
            empirical_variogram(np.ones((1, 5)))


class TestPairSamplingEstimator:
    def test_agrees_with_fft_estimator(self, smooth_field):
        fft_result = empirical_variogram(smooth_field, VariogramConfig(max_lag=10.0))
        pair_result = empirical_variogram(
            smooth_field,
            VariogramConfig(max_lag=10.0, method="pairs", n_pairs=200_000),
            seed=0,
        )
        # Interpolate both onto common lags for comparison.
        common = np.intersect1d(
            np.round(fft_result.lags, 1), np.round(pair_result.lags, 1)
        )
        assert common.size >= 5
        fft_interp = np.interp(common, fft_result.lags, fft_result.values)
        pair_interp = np.interp(common, pair_result.lags, pair_result.values)
        np.testing.assert_allclose(pair_interp, fft_interp, rtol=0.25)

    def test_reproducible_given_seed(self, rough_field):
        config = VariogramConfig(method="pairs", n_pairs=5000)
        a = empirical_variogram(rough_field, config, seed=42)
        b = empirical_variogram(rough_field, config, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_pair_counts_bounded_by_requested_pairs(self, rough_field):
        config = VariogramConfig(method="pairs", n_pairs=1000)
        result = empirical_variogram(rough_field, config, seed=0)
        assert result.pair_counts.sum() <= 1000


def brute_force_variogram(field, max_lag, bin_width=1.0):
    """Matheron's estimator over every point pair, by a double loop.

    Returns per-bin sums of squared differences, pair counts and summed
    pair distances for the ``ceil(max_lag / bin_width)`` bins.
    """

    coords = list(np.ndindex(field.shape))
    n_bins = int(np.ceil(max_lag / bin_width))
    sums, counts, dists = np.zeros(n_bins), np.zeros(n_bins, dtype=np.int64), np.zeros(n_bins)
    for a, pa in enumerate(coords):
        for pb in coords[a + 1 :]:
            dist = np.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)))
            if dist <= max_lag:
                index = min(int(dist / bin_width), n_bins - 1)
                sums[index] += (field[pa] - field[pb]) ** 2
                counts[index] += 1
                dists[index] += dist
    return sums, counts, dists


class TestBatchedEstimator:
    """The batched N-d FFT estimator against the brute-force definition."""

    @pytest.mark.parametrize("shape", [(7, 9), (5, 6, 7)])
    @pytest.mark.parametrize(
        "max_lag,bin_width", [(3.0, 1.0), (2.5, 0.5), (20.0, 1.0), (20.0, 3.0)]
    )
    def test_matches_brute_force_matheron(self, shape, max_lag, bin_width):
        field = np.random.default_rng(len(shape)).normal(size=shape)
        sums, counts, dists = brute_force_variogram(field, max_lag, bin_width)
        keep = counts > 0
        geometry, values, variances = variogram_fft_batch(
            field[None], max_lag, VariogramConfig(max_lag=max_lag, bin_width=bin_width)
        )
        np.testing.assert_array_equal(geometry.pair_counts, counts[keep])
        # Lag centres are the same sums of pair distances, added per offset
        # rather than per pair: equal up to the rounding of the long sums.
        np.testing.assert_allclose(geometry.lags, dists[keep] / counts[keep], rtol=1e-13, atol=0)
        np.testing.assert_allclose(values[0], sums[keep] / (2.0 * counts[keep]), rtol=1e-12)
        assert variances[0] == pytest.approx(field.var(), rel=1e-14)

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(5, 12, 10)).cumsum(axis=1)
        config = VariogramConfig(max_lag=6.0)
        geometry, values, variances = variogram_fft_batch(stack, 6.0, config)
        for index, field in enumerate(stack):
            single = _variogram_fft(field, config)
            np.testing.assert_allclose(values[index], single.values, rtol=1e-14, atol=0)
            np.testing.assert_array_equal(geometry.lags, single.lags)
            np.testing.assert_array_equal(geometry.pair_counts, single.pair_counts)
            assert variances[index] == pytest.approx(single.field_variance, rel=1e-14)

    @pytest.mark.parametrize("min_pairs", [3, 15, 100])
    def test_min_pairs_per_bin_drops_sparse_bins(self, min_pairs):
        field = np.random.default_rng(9).normal(size=(7, 9))
        sums, counts, _ = brute_force_variogram(field, 12.0)
        keep = counts >= min_pairs
        config = VariogramConfig(max_lag=12.0, min_pairs_per_bin=min_pairs)
        result = empirical_variogram(field, config)
        assert 0 < keep.sum() < (counts > 0).sum()
        np.testing.assert_array_equal(result.pair_counts, counts[keep])
        np.testing.assert_allclose(result.values, sums[keep] / (2.0 * counts[keep]), rtol=1e-12)

    def test_cached_geometry_is_read_only_and_results_are_copies(self):
        field = np.random.default_rng(10).normal(size=(16, 16))
        first = empirical_variogram(field)
        first.lags[0] = -1.0
        second = empirical_variogram(field)
        assert second.lags[0] > 0
        geometry, _, _ = variogram_fft_batch(field[None], 8.0, VariogramConfig())
        with pytest.raises(ValueError):
            geometry.lags[0] = 0.0


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["fft", "pairs"])
    def test_rejected_with_a_clear_error(self, bad, method):
        field = np.random.default_rng(11).normal(size=(16, 16))
        field[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            empirical_variogram(field, VariogramConfig(method=method))
