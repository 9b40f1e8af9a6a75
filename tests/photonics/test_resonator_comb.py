"""Unit tests for the microring resonator and comb grid."""

import numpy as np
import pytest

from repro.constants import COMB_SPACING, TELECOM_FREQUENCY
from repro.errors import ConfigurationError, PhysicsError
from repro.photonics.comb import ChannelPair, CombChannel, CombGrid
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

    def test_photon_lifetime(self, ring):
        assert np.isclose(
            ring.photon_lifetime_s(), 1.0 / (2 * np.pi * 110e6), rtol=1e-6
        )

    def test_resonance_ladder_spacing(self, ring):
        nus = ring.resonance_frequencies(range(-3, 4))
        spacings = np.diff(nus)
        assert np.allclose(spacings, ring.free_spectral_range("TE"), rtol=1e-9)

    def test_resonance_ladder_dispersion(self, ring):
        d2 = 50e3
        nus = ring.resonance_frequencies(range(-3, 4), anomalous_d2_hz=d2)
        # Second difference of the ladder equals D2.
        second = np.diff(nus, 2)
        assert np.allclose(second, d2, rtol=1e-6)

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

    def test_circulating_power(self, ring):
        assert ring.circulating_power_w(1e-3) > 0.1  # strong build-up

    def test_negative_power_rejected(self, ring):
        with pytest.raises(PhysicsError):
            ring.circulating_power_w(-1.0)

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


class TestCombGrid:
    def test_default_grid(self):
        grid = CombGrid()
        assert grid.pump_frequency_hz == TELECOM_FREQUENCY
        assert grid.spacing_hz == COMB_SPACING

    def test_channel_frequencies(self):
        grid = CombGrid(num_pairs=5)
        assert grid.channel(0).frequency_hz == grid.pump_frequency_hz
        assert np.isclose(
            grid.channel(3).frequency_hz - grid.channel(-3).frequency_hz,
            6 * grid.spacing_hz,
        )

    def test_channel_outside_grid(self):
        grid = CombGrid(num_pairs=3)
        with pytest.raises(ConfigurationError):
            grid.channel(4)

    def test_channel_labels(self):
        grid = CombGrid()
        assert grid.channel(0).label == "pump"
        assert grid.channel(2).label == "s2"
        assert grid.channel(-2).label == "i2"

    def test_pair_energy_conservation(self):
        grid = CombGrid()
        for order in range(1, 6):
            pair = grid.pair(order)
            assert np.isclose(pair.energy_sum_hz, 2 * grid.pump_frequency_hz)

    def test_pair_label(self):
        assert CombGrid().pair(3).label == "±3"

    def test_asymmetric_pair_rejected(self):
        grid = CombGrid()
        with pytest.raises(ConfigurationError):
            ChannelPair(signal=grid.channel(1), idler=grid.channel(-2))

    def test_pairs_count(self):
        grid = CombGrid(num_pairs=7)
        assert len(grid.pairs(5)) == 5
        assert [p.order for p in grid.pairs(5)] == [1, 2, 3, 4, 5]

    def test_pairs_count_validation(self):
        with pytest.raises(ConfigurationError):
            CombGrid(num_pairs=3).pairs(10)

    def test_bands_cover_s_c_l(self):
        # The paper's comb spans S, C and L; a wide grid must touch all 3.
        grid = CombGrid(num_pairs=25)
        bands = grid.bands_covered()
        assert {"S", "C", "L"}.issubset(set(bands))

    def test_channels_sorted(self):
        grid = CombGrid(num_pairs=4)
        freqs = grid.frequency_grid()
        assert np.all(np.diff(freqs) > 0)
        assert len(freqs) == 9

    def test_itu_channel_number(self):
        grid = CombGrid(pump_frequency_hz=193.1e12)
        assert np.isclose(grid.itu_channel_number(0), 31.0)

    def test_wavelength_round_trip(self):
        channel = CombGrid().channel(1)
        assert np.isclose(
            channel.wavelength_m * channel.frequency_hz, 299_792_458.0
        )
