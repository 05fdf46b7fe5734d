"""Tests for repro.stats.variogram_models."""

from __future__ import annotations

import numpy as np
import pytest

from scipy.optimize import least_squares

from repro.datasets.gaussian import generate_gaussian_field
from repro.datasets.miranda import generate_miranda_like_volume
from repro.stats.local import std_local_variogram_range
from repro.stats.variogram import EmpiricalVariogram, VariogramConfig, empirical_variogram
from repro.stats.variogram3d import estimate_variogram_range_3d
from repro.stats.variogram_models import (
    MODEL_FUNCTIONS,
    estimate_variogram_range,
    exponential_variogram,
    fit_variogram,
    fit_variogram_batch,
    gaussian_variogram,
    spherical_variogram,
)


class TestModelFunctions:
    def test_gaussian_zero_at_origin_and_sill_at_infinity(self):
        assert gaussian_variogram(np.array([0.0]), 2.0, 5.0)[0] == pytest.approx(0.0)
        assert gaussian_variogram(np.array([1e6]), 2.0, 5.0)[0] == pytest.approx(2.0)

    def test_nugget_shifts_origin(self):
        assert gaussian_variogram(np.array([0.0]), 2.0, 5.0, nugget=0.3)[0] == pytest.approx(0.3)

    def test_exponential_monotone(self):
        h = np.linspace(0, 50, 100)
        values = exponential_variogram(h, 1.0, 8.0)
        assert np.all(np.diff(values) > 0)

    def test_spherical_reaches_sill_exactly_at_range(self):
        assert spherical_variogram(np.array([8.0]), 1.5, 8.0)[0] == pytest.approx(1.5)
        assert spherical_variogram(np.array([20.0]), 1.5, 8.0)[0] == pytest.approx(1.5)

    def test_models_increase_with_distance(self):
        h = np.linspace(0, 30, 50)
        for func in (gaussian_variogram, exponential_variogram, spherical_variogram):
            values = func(h, 1.0, 10.0)
            assert np.all(np.diff(values) >= -1e-12)


class TestFitVariogram:
    def _synthetic_variogram(self, sill, range_, nugget=0.0, noise=0.0, seed=0):
        lags = np.linspace(1.0, 40.0, 30)
        values = gaussian_variogram(lags, sill, range_, nugget)
        if noise:
            values = values + np.random.default_rng(seed).normal(0, noise, size=lags.size)
        return EmpiricalVariogram(
            lags=lags,
            values=np.clip(values, 0, None),
            pair_counts=np.full(lags.size, 1000, dtype=np.int64),
            field_variance=sill + nugget,
        )

    def test_recovers_known_parameters(self):
        variogram = self._synthetic_variogram(sill=2.0, range_=12.0)
        fitted = fit_variogram(variogram, model="gaussian")
        assert fitted.sill == pytest.approx(2.0, rel=0.02)
        assert fitted.range == pytest.approx(12.0, rel=0.02)
        assert fitted.converged

    def test_recovers_nugget_when_requested(self):
        variogram = self._synthetic_variogram(sill=1.5, range_=8.0, nugget=0.25)
        fitted = fit_variogram(variogram, model="gaussian", fit_nugget=True)
        assert fitted.nugget == pytest.approx(0.25, abs=0.05)
        assert fitted.range == pytest.approx(8.0, rel=0.1)

    def test_robust_to_noise(self):
        variogram = self._synthetic_variogram(sill=1.0, range_=15.0, noise=0.03, seed=1)
        fitted = fit_variogram(variogram, model="gaussian")
        assert fitted.range == pytest.approx(15.0, rel=0.2)

    def test_weighting_options(self):
        variogram = self._synthetic_variogram(sill=1.0, range_=10.0)
        by_pairs = fit_variogram(variogram, weights="pairs")
        uniform = fit_variogram(variogram, weights="uniform")
        assert by_pairs.range == pytest.approx(uniform.range, rel=0.05)

    def test_unknown_model_rejected(self):
        variogram = self._synthetic_variogram(1.0, 5.0)
        with pytest.raises(ValueError):
            fit_variogram(variogram, model="cubic")

    def test_too_few_bins_rejected(self):
        variogram = EmpiricalVariogram(
            lags=np.array([1.0, 2.0]),
            values=np.array([0.1, 0.2]),
            pair_counts=np.array([10, 10]),
            field_variance=1.0,
        )
        with pytest.raises(ValueError, match="at least 3"):
            fit_variogram(variogram)

    def test_fitted_model_is_callable(self):
        variogram = self._synthetic_variogram(1.0, 10.0)
        fitted = fit_variogram(variogram)
        values = fitted(np.array([0.0, 10.0, 100.0]))
        assert values[0] == pytest.approx(fitted.nugget, abs=1e-9)
        assert values[-1] == pytest.approx(fitted.sill + fitted.nugget, rel=0.01)

    def test_effective_range_exceeds_range_for_gaussian(self):
        variogram = self._synthetic_variogram(1.0, 10.0)
        fitted = fit_variogram(variogram)
        assert fitted.effective_range > fitted.range


class TestEstimateVariogramRange:
    @pytest.mark.parametrize("true_range", [4.0, 8.0, 16.0])
    def test_recovers_generative_range(self, true_range):
        field = generate_gaussian_field((128, 128), true_range, seed=int(true_range))
        estimated = estimate_variogram_range(field)
        assert estimated == pytest.approx(true_range, rel=0.35)

    def test_monotone_in_true_range(self):
        estimates = [
            estimate_variogram_range(generate_gaussian_field((96, 96), a, seed=7))
            for a in (2.0, 8.0, 24.0)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_custom_config_respected(self, smooth_field):
        value = estimate_variogram_range(
            smooth_field, config=VariogramConfig(max_lag=16.0, bin_width=2.0)
        )
        assert value > 0


def _weights(variogram, weights):
    if weights == "uniform":
        return np.ones(variogram.lags.size)
    root = np.sqrt(variogram.pair_counts.astype(np.float64))
    return root / root.max()


def weighted_sse(variogram, model, sill, range_, nugget, weights):
    """The fit's objective: squared weighted residuals, summed."""

    w = _weights(variogram, weights)
    fitted = MODEL_FUNCTIONS[model](variogram.lags, sill, range_, nugget)
    return float(np.sum((w * (fitted - variogram.values)) ** 2))


def oracle_fit(variogram, model, fit_nugget, weights):
    """Reference fit: scipy's bounded trust-region least squares, run to
    tight tolerances on values scaled by the initial sill estimate, with
    the bounds and start point of the original implementation."""

    scale = max(float(variogram.field_variance), float(variogram.values.max()))
    lags, values = variogram.lags, variogram.values / scale
    w = _weights(variogram, weights)
    func = MODEL_FUNCTIONS[model]
    above = np.nonzero(values >= 0.632)[0]
    range0 = max(float(lags[above[0]]) if above.size else float(lags[-1] / 2.0), float(lags[0]))
    lower, upper = [1e-12, 1e-6], [np.inf, 10.0 * float(lags[-1])]
    x0 = [1.0, range0]
    if fit_nugget:
        lower, upper, x0 = lower + [0.0], upper + [1.0], x0 + [0.0]

    def residuals(params):
        nugget = params[2] if fit_nugget else 0.0
        return w * (func(lags, params[0], params[1], nugget) - values)

    result = least_squares(
        residuals, x0=x0, bounds=(lower, upper), method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
        max_nfev=20000,
    )
    sill, range_ = result.x[:2]
    nugget = result.x[2] if fit_nugget else 0.0
    return sill * scale, range_, nugget * scale


def _fit_corpus():
    """Seeded empirical variograms: 32x32 windows of Gaussian fields with
    ranges 2-32 and of Miranda-like slices, labelled by generative range
    (None for Miranda)."""

    corpus = []
    config = VariogramConfig(max_lag=16.0)
    for index, true_range in enumerate((2.0, 4.0, 8.0, 16.0, 32.0)):
        field = generate_gaussian_field((64, 64), true_range, seed=100 + index)
        for i in (0, 32):
            corpus.append((true_range, empirical_variogram(field[i : i + 32, i : i + 32], config)))
    volume = generate_miranda_like_volume((8, 64, 64), seed=105)
    for z in (2, 5):
        for i in (0, 32):
            window = volume[z, i : i + 32, 32 - i : 64 - i]
            corpus.append((None, empirical_variogram(window, config)))
    return corpus


FIT_CORPUS = _fit_corpus()


class TestFitIsOptimal:
    @pytest.mark.parametrize("weights", ["pairs", "uniform"])
    @pytest.mark.parametrize("fit_nugget", [False, True])
    @pytest.mark.parametrize("model", sorted(MODEL_FUNCTIONS))
    def test_no_worse_than_least_squares_oracle(self, model, fit_nugget, weights):
        for true_range, variogram in FIT_CORPUS:
            fitted = fit_variogram(variogram, model, fit_nugget=fit_nugget, weights=weights)
            oracle = oracle_fit(variogram, model, fit_nugget, weights)
            ours = weighted_sse(variogram, model, fitted.sill, fitted.range, fitted.nugget, weights)
            theirs = weighted_sse(variogram, model, *oracle, weights)
            assert ours <= theirs * (1.0 + 1e-9), (true_range, ours, theirs)
            assert fitted.converged
            if true_range is not None and true_range <= 16.0:
                assert fitted.range == pytest.approx(oracle[1], rel=1e-4), true_range

    def test_batch_equals_single_fits(self):
        variograms = [variogram for _, variogram in FIT_CORPUS]
        batch = fit_variogram_batch(
            variograms[0].lags,
            np.stack([v.values for v in variograms]),
            variograms[0].pair_counts,
            np.array([v.field_variance for v in variograms]),
            fit_nugget=True,
        )
        for index, variogram in enumerate(variograms):
            single = fit_variogram(variogram, fit_nugget=True)
            assert batch.range[index] == pytest.approx(single.range, rel=1e-12)
            assert batch.sill[index] == pytest.approx(single.sill, rel=1e-12)
            assert batch.nugget[index] == pytest.approx(single.nugget, rel=1e-12, abs=1e-300)


class TestScaleInvariance:
    """A range is in grid units: multiplying the field by a constant must
    not move it."""

    @pytest.fixture(scope="class")
    def fields(self):
        volume = generate_miranda_like_volume((8, 64, 64), seed=21)
        return {
            "miranda": volume[4],
            "gaussian": generate_gaussian_field((64, 64), 6.0, seed=22),
            "volume": generate_miranda_like_volume((32, 32, 32), seed=23),
        }

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    @pytest.mark.parametrize("name", ["miranda", "gaussian"])
    def test_2d_statistics(self, fields, name, factor):
        field = fields[name]
        assert estimate_variogram_range(factor * field) == pytest.approx(
            estimate_variogram_range(field), rel=1e-9
        )
        assert std_local_variogram_range(factor * field, 32) == pytest.approx(
            std_local_variogram_range(field, 32), rel=1e-9
        )

    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_3d_range(self, fields, factor):
        volume = fields["volume"]
        assert estimate_variogram_range_3d(factor * volume) == pytest.approx(
            estimate_variogram_range_3d(volume), rel=1e-9
        )


class TestNonFiniteField:
    def test_global_range_rejects_non_finite_field(self):
        field = generate_gaussian_field((32, 32), 4.0, seed=24)
        field[5, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_variogram_range(field)
