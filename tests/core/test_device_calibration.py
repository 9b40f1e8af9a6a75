"""Unit tests for device presets and calibration defaults."""

import numpy as np
import pytest

from repro.core.calibration import (
    FOUR_PHOTON_DEFAULTS,
    HERALDED_DEFAULTS,
    TIME_BIN_DEFAULTS,
    TYPE_II_DEFAULTS,
    HeraldedCalibration,
)
from repro.core.device import RingDevice, hydex_ring_high_q, hydex_ring_type_ii
from repro.errors import ConfigurationError


class TestDevicePresets:
    def test_high_q_linewidth(self):
        device = hydex_ring_high_q()
        assert np.isclose(device.linewidth_hz, 110e6, rtol=1e-6)

    def test_high_q_fsr(self):
        device = hydex_ring_high_q()
        assert np.isclose(
            device.ring.free_spectral_range("TE"), 200e9, rtol=1e-6
        )

    def test_type_ii_linewidth(self):
        device = hydex_ring_type_ii()
        assert np.isclose(device.linewidth_hz, 800e6, rtol=1e-6)

    def test_type_ii_tolerates_fsr_mismatch(self):
        # The design requirement of Section III: TE/TM FSR mismatch per
        # order must be below the type-II chip linewidth.
        device = hydex_ring_type_ii()
        fsr_te = device.ring.free_spectral_range("TE")
        fsr_tm = device.ring.free_spectral_range("TM")
        assert abs(fsr_te - fsr_tm) < device.linewidth_hz

    def test_broad_comb_needs_type_ii_linewidth(self):
        # The accumulated mismatch grows linearly with comb order; across
        # the comb (order 5) it exceeds the 110 MHz high-Q linewidth but
        # stays within the 800 MHz type-II chip linewidth — why the
        # type-II experiment used the broader ring.
        high_q = hydex_ring_high_q()
        type_ii = hydex_ring_type_ii()
        mismatch = abs(
            high_q.ring.free_spectral_range("TE")
            - high_q.ring.free_spectral_range("TM")
        )
        assert 5 * mismatch > high_q.linewidth_hz
        assert 5 * mismatch < type_ii.linewidth_hz

    def test_summary_keys(self):
        summary = hydex_ring_high_q().summary()
        assert {"fsr_ghz", "linewidth_mhz", "loaded_q", "radius_um"} <= set(summary)
        assert np.isclose(summary["fsr_ghz"], 200.0, rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RingDevice(ring=hydex_ring_high_q().ring, num_tracked_pairs=0)


class TestHeraldedCalibration:
    def test_default_rate_at_15mw(self):
        # ~3 kHz generated pairs per channel at 15 mW ([6]).
        rate = HERALDED_DEFAULTS.generated_pair_rate_hz()
        assert 2500 < rate < 3500

    def test_rate_quadratic(self):
        r1 = HERALDED_DEFAULTS.generated_pair_rate_hz(5e-3)
        r2 = HERALDED_DEFAULTS.generated_pair_rate_hz(10e-3)
        assert np.isclose(r2 / r1, 4.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            HERALDED_DEFAULTS.generated_pair_rate_hz(-1.0)

    def test_channel_count_consistent(self):
        assert HERALDED_DEFAULTS.num_channel_pairs == 5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            HeraldedCalibration(
                arm_efficiencies=(0.1, 0.1), dark_rates_hz=(1e3,)
            )


class TestTimeBinCalibration:
    def test_multi_pair_visibility(self):
        mu = TIME_BIN_DEFAULTS.mu_per_pulse
        assert np.isclose(
            TIME_BIN_DEFAULTS.multi_pair_visibility, 1.0 / (1.0 + 2.0 * mu)
        )

    def test_state_visibility_near_paper(self):
        # The calibrated product must sit near the paper's 83 % once the
        # phase-noise factor (applied at scan time) is included.
        sigma = TIME_BIN_DEFAULTS.phase_noise_sigma_rad
        total = TIME_BIN_DEFAULTS.state_visibility * np.exp(-(sigma**2))
        assert 0.80 < total < 0.86

    def test_event_rate_positive(self):
        assert TIME_BIN_DEFAULTS.coincidence_event_rate_hz() > 0


class TestFourPhotonCalibration:
    def test_fourfold_visibility_near_paper(self):
        v = FOUR_PHOTON_DEFAULTS.state_visibility
        fringe = 2 * v / (1 + v)
        assert 0.86 < fringe < 0.92

    def test_tomography_shots_positive(self):
        assert FOUR_PHOTON_DEFAULTS.tomography_shots_per_setting > 0


class TestTypeIICalibration:
    def test_pump_at_2mw_total(self):
        assert np.isclose(
            TYPE_II_DEFAULTS.pump_te_w + TYPE_II_DEFAULTS.pump_tm_w, 2e-3
        )

    def test_opo_threshold_is_paper_value(self):
        assert np.isclose(TYPE_II_DEFAULTS.opo_threshold_w, 14e-3)
