"""Unit tests for the microring resonator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.resonator import Microring, RingCoupling, ring_for_linewidth
from repro.photonics.waveguide import Waveguide

LAMBDA = 1550e-9


@pytest.fixture(scope="module")
def ring():
    return ring_for_linewidth(Waveguide(), 200e9, 110e6)


class TestRingCoupling:
    def test_finesse_round_trip(self):
        coupling = RingCoupling.from_finesse(1000.0)
        assert np.isclose(coupling.finesse, 1000.0, rtol=1e-9)

    def test_cross_coupling_complementary(self):
        coupling = RingCoupling(self_coupling=0.98, round_trip_transmission=0.999)
        assert np.isclose(coupling.cross_coupling_power, 1 - 0.98**2)

    def test_enhancement_positive(self):
        coupling = RingCoupling.from_finesse(500.0)
        assert coupling.field_enhancement_power > 1.0

    def test_higher_finesse_higher_enhancement(self):
        low = RingCoupling.from_finesse(200.0).field_enhancement_power
        high = RingCoupling.from_finesse(2000.0).field_enhancement_power
        assert high > low

    def test_invalid_self_coupling(self):
        with pytest.raises(ConfigurationError):
            RingCoupling(self_coupling=1.0, round_trip_transmission=0.999)

    def test_invalid_transmission(self):
        with pytest.raises(ConfigurationError):
            RingCoupling(self_coupling=0.9, round_trip_transmission=0.0)

    def test_unreachable_finesse(self):
        with pytest.raises(PhysicsError):
            RingCoupling.from_finesse(1e9, round_trip_transmission=0.5)


class TestMicroring:
    def test_fsr_matches_target(self, ring):
        assert np.isclose(ring.free_spectral_range("TE"), 200e9, rtol=1e-6)

    def test_linewidth_matches_target(self, ring):
        assert np.isclose(ring.linewidth_hz("TE"), 110e6, rtol=1e-6)

    def test_loaded_q_about_1p8m(self, ring):
        assert np.isclose(ring.loaded_q(), 1.76e6, rtol=0.02)

    def test_radius_reasonable(self, ring):
        # 200 GHz FSR in Hydex needs a radius around 135 um.
        assert 100e-6 < ring.radius_m < 180e-6

    def test_polarization_offset_within_half_fsr(self, ring):
        offset = ring.polarization_offset()
        assert abs(offset) <= ring.free_spectral_range("TE") / 2

    def test_fsr_mismatch_small_for_near_square(self):
        ring = ring_for_linewidth(Waveguide(), 200e9, 800e6)
        mismatch = ring.free_spectral_range("TE") - ring.free_spectral_range("TM")
        # Near-square Hydex guide: TE/TM FSR difference well below 1 GHz.
        assert abs(mismatch) < 1e9

    def test_polarization_offset_nonzero(self, ring):
        # The 1.5 x 1.45 um guide is birefringent enough to shift ladders.
        assert abs(ring.polarization_offset()) > 1e9

    def test_lorentzian_peak_normalised(self, ring):
        assert np.isclose(abs(ring.lorentzian_amplitude(0.0)), 1.0)

    def test_lorentzian_half_width(self, ring):
        half = ring.linewidth_hz() / 2.0
        value = abs(ring.lorentzian_amplitude(half)) ** 2
        assert np.isclose(value, 0.5, rtol=1e-9)

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            Microring(
                waveguide=Waveguide(),
                radius_m=0.0,
                coupling=RingCoupling.from_finesse(100),
            )

    def test_ring_for_linewidth_validation(self):
        with pytest.raises(ConfigurationError):
            ring_for_linewidth(Waveguide(), 200e9, 300e9)

