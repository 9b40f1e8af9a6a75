"""Unit tests for SFWM, JSA purity and the OPO transfer curve."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.fwm import TypeIIProcess, phase_mismatch_suppression
from repro.photonics.jsa import purity_vs_pump_bandwidth, ring_jsa
from repro.photonics.opo import ParametricOscillator
from repro.photonics.resonator import ring_for_linewidth
from repro.photonics.waveguide import Waveguide
from repro.utils.fitting import fit_power_law


@pytest.fixture(scope="module")
def high_q_ring():
    return ring_for_linewidth(Waveguide(), 200e9, 110e6)


@pytest.fixture(scope="module")
def type_ii_ring():
    # The type-II chip of [7] used a lower-Q ring (~800 MHz linewidth).
    return ring_for_linewidth(Waveguide(), 200e9, 800e6)


class TestSuppression:
    def test_on_resonance_unsuppressed(self):
        assert phase_mismatch_suppression(0.0, 100e6) == 1.0

    def test_half_linewidth_half_power(self):
        assert np.isclose(phase_mismatch_suppression(50e6, 100e6), 0.5)

    def test_monotone_decreasing(self):
        values = [phase_mismatch_suppression(d, 100e6) for d in (0, 1e8, 1e9, 1e10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_linewidth(self):
        with pytest.raises(ConfigurationError):
            phase_mismatch_suppression(1e6, 0.0)


class TestTypeII:
    def test_rate_bilinear_in_pumps(self, type_ii_ring):
        process = TypeIIProcess(type_ii_ring)
        r = process.pair_generation_rate_hz(1e-3, 1e-3)
        r_double_te = process.pair_generation_rate_hz(2e-3, 1e-3)
        assert np.isclose(r_double_te / r, 2.0)

    def test_zero_if_either_pump_off(self, type_ii_ring):
        process = TypeIIProcess(type_ii_ring)
        assert process.pair_generation_rate_hz(1e-3, 0.0) == 0.0
        assert process.pair_generation_rate_hz(0.0, 1e-3) == 0.0

    def test_stimulated_strongly_suppressed(self, type_ii_ring):
        process = TypeIIProcess(type_ii_ring)
        # The TE/TM ladder offset must bury the stimulated process.
        assert process.stimulated_suppression_db() > 30.0

    def test_energy_mismatch_linear_in_order(self, type_ii_ring):
        process = TypeIIProcess(type_ii_ring)
        m1 = process.energy_mismatch_hz(1)
        m3 = process.energy_mismatch_hz(3)
        assert np.isclose(m3, 3 * m1)

    def test_rate_decreases_with_order(self, type_ii_ring):
        process = TypeIIProcess(type_ii_ring)
        rates = [
            process.pair_generation_rate_hz(1e-3, 1e-3, pair_order=m)
            for m in (1, 3, 5)
        ]
        assert rates[0] > rates[1] > rates[2]

    def test_first_order_efficient_on_type_ii_chip(self, type_ii_ring):
        # FSR matching keeps order-1 suppression mild on the 800 MHz chip.
        process = TypeIIProcess(type_ii_ring)
        mismatch = process.energy_mismatch_hz(1)
        linewidth = type_ii_ring.linewidth_hz("TE")
        assert phase_mismatch_suppression(mismatch, linewidth) > 0.5

    def test_negative_pump_rejected(self, type_ii_ring):
        with pytest.raises(PhysicsError):
            TypeIIProcess(type_ii_ring).pair_generation_rate_hz(-1e-3, 1e-3)


class TestJSA:
    def test_broad_pump_high_purity(self, high_q_ring):
        jsa = ring_jsa(high_q_ring, 20 * high_q_ring.linewidth_hz(), grid_points=81)
        assert jsa.heralded_purity > 0.95

    def test_narrow_pump_lower_purity(self, high_q_ring):
        broad = ring_jsa(high_q_ring, 20 * high_q_ring.linewidth_hz(), 81)
        narrow = ring_jsa(high_q_ring, 0.5 * high_q_ring.linewidth_hz(), 81)
        assert narrow.heralded_purity < broad.heralded_purity

    def test_purity_monotone_in_bandwidth(self, high_q_ring):
        ratios = np.array([0.5, 1.0, 3.0, 10.0])
        purities = purity_vs_pump_bandwidth(high_q_ring, ratios, grid_points=61)
        assert all(a < b for a, b in zip(purities, purities[1:]))
        assert np.all((purities > 0) & (purities <= 1.0))

    def test_jsa_shapes(self, high_q_ring):
        jsa = ring_jsa(high_q_ring, 1e9, grid_points=41)
        assert jsa.matrix.shape == (41, 41)

    def test_invalid_bandwidth(self, high_q_ring):
        with pytest.raises(ConfigurationError):
            ring_jsa(high_q_ring, 0.0)

    def test_invalid_ratios(self, high_q_ring):
        with pytest.raises(ConfigurationError):
            purity_vs_pump_bandwidth(high_q_ring, np.array([0.0, 1.0]))


class TestOPO:
    def test_below_threshold_quadratic(self):
        opo = ParametricOscillator()
        powers = np.linspace(1e-3, 10e-3, 15)
        outputs = opo.output_power_w(powers)
        assert np.isclose(fit_power_law(powers, outputs), 2.0, atol=0.01)

    def test_above_threshold_linear(self):
        opo = ParametricOscillator()
        powers = np.linspace(16e-3, 30e-3, 15)
        outputs = opo.output_power_w(powers)
        slope = np.polyfit(powers, outputs, 1)[0]
        assert np.isclose(slope, opo.slope_efficiency, rtol=1e-6)

    def test_continuity_at_threshold(self):
        opo = ParametricOscillator()
        eps = 1e-9
        below = float(opo.output_power_w(opo.threshold_power_w - eps))
        above = float(opo.output_power_w(opo.threshold_power_w + eps))
        assert np.isclose(below, above, rtol=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ParametricOscillator(threshold_power_w=0.0)
        with pytest.raises(PhysicsError):
            ParametricOscillator().output_power_w(-1.0)
