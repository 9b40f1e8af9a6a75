"""Unit tests for physical constants and telecom conventions."""

import numpy as np
import pytest

from repro import constants


class TestConversions:
    def test_wavelength_frequency_round_trip(self):
        for wavelength in (1300e-9, 1550e-9, 1625e-9):
            frequency = constants.SPEED_OF_LIGHT / wavelength
            assert np.isclose(
                constants.frequency_to_wavelength(frequency), wavelength
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            constants.frequency_to_wavelength(-1.0)


class TestBands:
    def test_c_band_membership(self):
        assert constants.band_of_wavelength(1550e-9) == "C"

    def test_s_and_l_bands(self):
        assert constants.band_of_wavelength(1500e-9) == "S"
        assert constants.band_of_wavelength(1600e-9) == "L"

    def test_band_of_frequency(self):
        assert constants.band_of_frequency(193.4e12) == "C"

    def test_outside_bands_rejected(self):
        with pytest.raises(ValueError):
            constants.band_of_wavelength(800e-9)

    def test_band_edges_contiguous(self):
        bands = list(constants.TELECOM_BANDS.values())
        for (low_a, high_a), (low_b, high_b) in zip(bands, bands[1:]):
            assert high_a == low_b


class TestCombConventions:
    def test_spacing_is_200ghz(self):
        assert constants.COMB_SPACING == 200e9

    def test_comb_spans_s_c_l(self):
        # 25 lines of 200 GHz on each side cover > 10 THz: S+C+L.
        span = 2 * 25 * constants.COMB_SPACING
        c = constants.SPEED_OF_LIGHT
        c_band_width = c / 1530e-9 - c / 1565e-9
        assert span > 2 * c_band_width
