"""Unit tests for coincidence counting, CAR and the TDC."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.detection.coincidence import (
    CoincidenceResult,
    car_from_tags,
    count_coincidences,
    expected_car,
)
from repro.detection.spd import DetectorModel
from repro.detection.tdc import TimeToDigitalConverter, collect_delays
from repro.detection.timetags import BiphotonSource, uncorrelated_stream


class TestCollectDelays:
    def test_simple_pairs(self):
        starts = np.array([0.0, 10.0])
        stops = np.array([0.5, 10.2, 30.0])
        delays = collect_delays(starts, stops, 1.0)
        assert np.allclose(sorted(delays), [0.2, 0.5])

    def test_multiple_stops_per_start(self):
        starts = np.array([0.0])
        stops = np.array([-0.5, 0.1, 0.4, 2.0])
        delays = collect_delays(starts, stops, 1.0)
        assert len(delays) == 3

    def test_empty_inputs(self):
        assert collect_delays(np.empty(0), np.empty(0), 1.0).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            collect_delays(np.array([0.0]), np.array([0.0]), 0.0)


class TestCountCoincidences:
    def test_exact_window(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.1, 1.4, 5.0])
        assert count_coincidences(a, b, window_s=0.5) == 1
        assert count_coincidences(a, b, window_s=1.0) == 2

    def test_offset_window(self):
        a = np.array([0.0])
        b = np.array([3.0])
        assert count_coincidences(a, b, window_s=0.5, center_s=3.0) == 1
        assert count_coincidences(a, b, window_s=0.5) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            count_coincidences(np.array([0.0]), np.array([0.0]), 0.0)


class TestCoincidenceHistogram:
    def test_peak_at_zero_for_pairs(self, rng):
        src = BiphotonSource(pair_rate_hz=20_000.0, linewidth_hz=200e6)
        stream = src.generate(5.0, rng)
        centres, counts = TimeToDigitalConverter(100e-12).delay_histogram(
            stream.signal_times_s, stream.idler_times_s, 10e-9
        )
        assert abs(centres[np.argmax(counts)]) < 0.5e-9

    def test_flat_for_uncorrelated(self, rng):
        a = uncorrelated_stream(50_000.0, 2.0, rng.child("a"))
        b = uncorrelated_stream(50_000.0, 2.0, rng.child("b"))
        centres, counts = TimeToDigitalConverter(1e-9).delay_histogram(
            a, b, 50e-9
        )
        # No structure: max bin within 5 sigma of the mean bin.
        assert counts.max() < counts.mean() + 5 * np.sqrt(counts.mean())


class TestCAR:
    def test_car_for_clean_pairs(self, rng):
        src = BiphotonSource(pair_rate_hz=5000.0, linewidth_hz=110e6)
        stream = src.generate(30.0, rng)
        det = DetectorModel(
            efficiency=0.2, dark_count_rate_hz=1000.0, jitter_sigma_s=100e-12,
            dead_time_s=0.0,
        )
        s = det.detect(stream.signal_times_s, 30.0, rng.child("s"))
        i = det.detect(stream.idler_times_s, 30.0, rng.child("i"))
        result = car_from_tags(s, i, 30.0, window_s=4e-9)
        assert result.car > 20.0
        assert result.coincidences > result.accidentals_mean

    def test_car_near_one_for_uncorrelated(self, rng):
        a = uncorrelated_stream(30_000.0, 10.0, rng.child("a"))
        b = uncorrelated_stream(30_000.0, 10.0, rng.child("b"))
        result = car_from_tags(a, b, 10.0, window_s=4e-9)
        assert 0.5 < result.car < 2.0

    def test_true_rate_subtracts_accidentals(self):
        result = CoincidenceResult(
            coincidences=120, accidentals_mean=20.0, duration_s=10.0, window_s=1e-9
        )
        assert np.isclose(result.true_coincidence_rate_hz, 10.0)
        assert np.isclose(result.car, 6.0)

    def test_car_infinite_without_accidentals(self):
        result = CoincidenceResult(
            coincidences=5, accidentals_mean=0.0, duration_s=1.0, window_s=1e-9
        )
        assert result.car == np.inf

    def test_car_error_positive(self):
        result = CoincidenceResult(
            coincidences=100, accidentals_mean=10.0, duration_s=1.0, window_s=1e-9
        )
        assert result.car_error > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            car_from_tags(np.empty(0), np.empty(0), 1.0, window_s=1e-9,
                          accidental_offset_s=0.5e-9)

    def test_expected_car_formula(self):
        car = expected_car(100.0, 10_000.0, 10_000.0, 1e-9)
        assert np.isclose(car, (100.0 + 0.1) / 0.1)

    def test_expected_car_infinite_without_singles(self):
        assert expected_car(10.0, 0.0, 100.0, 1e-9) == np.inf


class TestTDC:
    def test_histogram_shape(self, rng):
        tdc = TimeToDigitalConverter(bin_width_s=100e-12)
        src = BiphotonSource(pair_rate_hz=20_000.0, linewidth_hz=110e6)
        stream = src.generate(2.0, rng)
        centres, counts = tdc.delay_histogram(
            stream.signal_times_s, stream.idler_times_s, 10e-9
        )
        assert centres.size == counts.size
        assert counts.sum() > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TimeToDigitalConverter(bin_width_s=0.0)
        with pytest.raises(ConfigurationError):
            TimeToDigitalConverter().delay_histogram(np.empty(0), np.empty(0), 0.0)
