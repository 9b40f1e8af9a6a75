"""Unit tests for pump configurations."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.photonics.pump import (
    DoublePulsePump,
    DualPolarizationPump,
    SelfLockedPump,
)


class TestSelfLockedPump:
    def test_power_series_mean(self, rng):
        pump = SelfLockedPump(power_w=15e-3, relative_drift_std=0.008)
        series = pump.power_series_w(30 * 86400.0, 3600.0, rng)
        assert np.isclose(series.mean(), 15e-3, rtol=0.02)

    def test_power_series_bounded_fluctuation(self, rng):
        # The paper claim: < 5% fluctuation over weeks.
        pump = SelfLockedPump(power_w=15e-3, relative_drift_std=0.008)
        series = pump.power_series_w(30 * 86400.0, 3600.0, rng)
        half_peak_to_peak = (series.max() - series.min()) / (2 * series.mean())
        assert half_peak_to_peak < 0.05

    def test_series_reproducible(self, rng_factory):
        pump = SelfLockedPump()
        a = pump.power_series_w(86400.0, 600.0, rng_factory("s"))
        b = pump.power_series_w(86400.0, 600.0, rng_factory("s"))
        assert np.allclose(a, b)

    def test_zero_drift_constant(self, rng):
        pump = SelfLockedPump(power_w=10e-3, relative_drift_std=0.0)
        series = pump.power_series_w(3600.0, 60.0, rng)
        assert np.allclose(series, 10e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SelfLockedPump(relative_drift_std=0.9)
        with pytest.raises(ConfigurationError):
            SelfLockedPump().power_series_w(0.0, 1.0, None)


class TestDualPolarizationPump:
    def test_balanced_split(self):
        pump = DualPolarizationPump(power_te_w=1e-3, power_tm_w=1e-3)
        assert pump.power_te_w == 1e-3
        assert pump.power_tm_w == 1e-3
        assert pump.total_power_w == 2e-3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            DualPolarizationPump(power_te_w=-1.0, power_tm_w=1.0)


class TestDoublePulsePump:
    def test_average_power(self):
        pump = DoublePulsePump(pulse_energy_j=1e-12, repetition_rate_hz=16.8e6)
        assert np.isclose(pump.average_power_w(), 2 * 1e-12 * 16.8e6)

    def test_overlapping_pulses_rejected(self):
        with pytest.raises(ConfigurationError):
            DoublePulsePump(pulse_separation_s=40e-9, repetition_rate_hz=16.8e6)

    def test_invalid_separation(self):
        with pytest.raises(ConfigurationError):
            DoublePulsePump(pulse_separation_s=0.0)
