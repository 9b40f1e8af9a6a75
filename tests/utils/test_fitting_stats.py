"""Unit tests for curve fitting and counting statistics."""

import numpy as np
import pytest

from repro.errors import FitError
from repro.utils import fitting, stats


class TestFringeFit:
    def test_recovers_visibility(self):
        phases = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        counts = 100.0 * (1.0 + 0.83 * np.cos(phases + 0.4))
        fit = fitting.fit_fringe(phases, counts)
        assert np.isclose(fit.visibility, 0.83, atol=1e-9)
        assert np.isclose(fit.offset, 100.0, atol=1e-9)
        assert np.isclose(fit.phase, 0.4, atol=1e-9)

    def test_noisy_fringe(self):
        rng = np.random.default_rng(0)
        phases = np.linspace(0, 2 * np.pi, 36, endpoint=False)
        counts = 200.0 * (1.0 + 0.9 * np.cos(phases)) + rng.normal(0, 5, 36)
        fit = fitting.fit_fringe(phases, counts)
        assert abs(fit.visibility - 0.9) < 0.05

    def test_flat_fringe_zero_visibility(self):
        phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        counts = np.full(16, 50.0)
        fit = fitting.fit_fringe(phases, counts)
        assert fit.visibility < 1e-9

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fitting.fit_fringe(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            fitting.fit_fringe(np.zeros(5), np.zeros(6))


class TestLinewidthConversions:
    def test_round_trip(self):
        for linewidth in (50e6, 110e6, 800e6):
            rate = fitting.linewidth_to_decay_rate(linewidth)
            assert np.isclose(fitting.decay_rate_to_linewidth(rate), linewidth)

    def test_110mhz_coherence_time(self):
        rate = fitting.linewidth_to_decay_rate(110e6)
        # 1/e coherence time ~ 1.45 ns.
        assert np.isclose(1.0 / rate, 1.45e-9, atol=0.05e-9)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            fitting.linewidth_to_decay_rate(0.0)


class TestExpGaussModel:
    def test_reduces_to_exponential_at_zero_jitter(self):
        tau = np.linspace(-5e-9, 5e-9, 101)
        values = fitting.exp_gauss_model(tau, 1.0, 1e9, 0.0, 0.0)
        assert np.allclose(values, np.exp(-1e9 * np.abs(tau)))

    def test_symmetric(self):
        tau = np.linspace(-4e-9, 4e-9, 81)
        values = fitting.exp_gauss_model(tau, 1.0, 7e8, 1e-10, 0.1)
        assert np.allclose(values, values[::-1], rtol=1e-10)

    def test_broadens_with_jitter(self):
        tau = np.linspace(-5e-9, 5e-9, 201)
        narrow = fitting.exp_gauss_model(tau, 1.0, 1e9, 1e-11, 0.0)
        broad = fitting.exp_gauss_model(tau, 1.0, 1e9, 4e-10, 0.0)
        # The convolution preserves area but reduces the peak.
        assert broad.max() < narrow.max()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            fitting.exp_gauss_model(np.zeros(3), 1.0, -1.0, 0.0, 0.0)


class TestCoincidencePeakFit:
    def _histogram(self, linewidth_hz, jitter_sigma, n_events=200000, seed=3):
        rng = np.random.default_rng(seed)
        rate = fitting.linewidth_to_decay_rate(linewidth_hz)
        signs = rng.choice([-1.0, 1.0], size=n_events)
        taus = signs * rng.exponential(1.0 / rate, n_events)
        taus += rng.normal(0.0, jitter_sigma, n_events)
        edges = np.linspace(-8e-9, 8e-9, 161)
        counts, _ = np.histogram(taus, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return centers, counts.astype(float)

    def test_recovers_linewidth_without_jitter(self):
        centers, counts = self._histogram(110e6, 1e-12)
        fit = fitting.fit_coincidence_peak(centers, counts, 1e-12, fix_jitter=True)
        assert abs(fit.linewidth_hz - 110e6) / 110e6 < 0.05

    def test_recovers_linewidth_with_jitter(self):
        centers, counts = self._histogram(110e6, 3e-10)
        fit = fitting.fit_coincidence_peak(centers, counts, 3e-10, fix_jitter=True)
        assert abs(fit.linewidth_hz - 110e6) / 110e6 < 0.08

    def test_free_jitter_fit(self):
        # Jitter must be comparable to the decay time to be identifiable
        # when it floats freely; 0.5 ns jitter vs 0.8 ns decay works.
        centers, counts = self._histogram(200e6, 5e-10)
        fit = fitting.fit_coincidence_peak(centers, counts, 2e-10, fix_jitter=False)
        assert abs(fit.linewidth_hz - 200e6) / 200e6 < 0.15
        assert abs(fit.jitter_sigma - 5e-10) / 5e-10 < 0.4

    def test_empty_histogram_rejected(self):
        centers = np.linspace(-1e-9, 1e-9, 20)
        with pytest.raises(FitError):
            fitting.fit_coincidence_peak(centers, np.zeros(20), 1e-10)

    def test_coherence_time_property(self):
        fit = fitting.ExponentialDecayFit(
            decay_rate=1e9, jitter_sigma=0.0, amplitude=1.0,
            background=0.0, residual_rms=0.0,
        )
        assert np.isclose(fit.coherence_time, 1e-9)


class TestPowerLawFit:
    def test_quadratic(self):
        powers = np.linspace(1.0, 10.0, 20)
        outputs = 0.5 * powers**2
        assert np.isclose(fitting.fit_power_law(powers, outputs), 2.0)

    def test_linear(self):
        powers = np.linspace(1.0, 10.0, 20)
        outputs = 3.0 * powers
        assert np.isclose(fitting.fit_power_law(powers, outputs), 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fitting.fit_power_law(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestCountingStats:
    def test_poisson_interval_contains_mean(self):
        low, high = stats.poisson_interval(100)
        assert low < 100 < high

    def test_poisson_interval_zero_counts(self):
        low, high = stats.poisson_interval(0)
        assert low == 0.0
        assert high > 0.0

    def test_poisson_interval_validation(self):
        with pytest.raises(ValueError):
            stats.poisson_interval(10, confidence=1.5)

    def test_ratio_error(self):
        err = stats.ratio_error(10.0, 1.0, 5.0, 0.5)
        expected = 2.0 * np.sqrt(0.01 + 0.01)
        assert np.isclose(err, expected)

    def test_relative_fluctuation(self):
        series = np.array([95.0, 100.0, 105.0])
        assert np.isclose(stats.relative_fluctuation(series), 0.05)

    def test_relative_fluctuation_validation(self):
        with pytest.raises(ValueError):
            stats.relative_fluctuation(np.array([]))

    def test_coefficient_of_variation(self):
        series = np.array([1.0, 1.0, 1.0])
        assert stats.coefficient_of_variation(series) == 0.0

    def test_bootstrap_std_of_mean(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, 400)
        se = stats.bootstrap_std(values, np.mean, n_resamples=300)
        assert 0.03 < se < 0.08
