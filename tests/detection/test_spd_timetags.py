"""Unit tests for the detector model and time-tag generation."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.detection import tdc
from repro.detection.spd import (
    DetectorModel,
    _apply_dead_time,
    _dead_time_loop,
)
from repro.detection.timetags import BiphotonSource, thin_stream, uncorrelated_stream


class TestDetectorModel:
    def test_efficiency_thinning(self, rng):
        det = DetectorModel(
            efficiency=0.25, dark_count_rate_hz=0.0, jitter_sigma_s=0.0,
            dead_time_s=0.0,
        )
        photons = np.sort(rng.uniform(0, 100.0, 200_000))
        clicks = det.detect(photons, 100.0, rng)
        assert abs(clicks.size / photons.size - 0.25) < 0.01

    def test_dark_counts_only(self, rng):
        det = DetectorModel(
            efficiency=0.5, dark_count_rate_hz=1000.0, jitter_sigma_s=0.0,
            dead_time_s=0.0,
        )
        clicks = det.detect(np.empty(0), 50.0, rng)
        assert abs(clicks.size / 50.0 - 1000.0) < 50.0

    def test_clicks_sorted(self, rng):
        det = DetectorModel()
        photons = rng.uniform(0, 1.0, 5000)
        clicks = det.detect(photons, 1.0, rng)
        assert np.all(np.diff(clicks) >= 0)

    def test_dead_time_enforced(self, rng):
        det = DetectorModel(
            efficiency=1.0, dark_count_rate_hz=0.0, jitter_sigma_s=0.0,
            dead_time_s=1e-3,
        )
        photons = np.sort(rng.uniform(0, 1.0, 10_000))
        clicks = det.detect(photons, 1.0, rng)
        assert clicks.size <= 1001
        assert np.all(np.diff(clicks) >= 1e-3 - 1e-12)

    def test_jitter_broadens(self, rng_factory):
        photons = np.full(20_000, 0.5)
        det = DetectorModel(
            efficiency=1.0, dark_count_rate_hz=0.0, jitter_sigma_s=100e-12,
            dead_time_s=0.0,
        )
        clicks = det.detect(photons, 1.0, rng_factory("jit"))
        assert np.isclose(np.std(clicks - 0.5), 100e-12, rtol=0.05)

    @pytest.mark.parametrize("dead_time_s", [10e-6, 200e-6])
    @pytest.mark.parametrize("block", [3, 64, 2**16])
    def test_detect_matches_the_plain_chain(
        self, rng_factory, dead_time_s, block
    ):
        # Darks drawn into the click buffer and survivors compacted within
        # it, in blocks of any size: the clicks and cursor of concatenating,
        # sorting and running the sequential dead-time filter.
        det = DetectorModel(
            efficiency=0.3, dark_count_rate_hz=20e3, jitter_sigma_s=1e-9,
            dead_time_s=dead_time_s,
        )
        photons = np.sort(rng_factory("photons").uniform(0.0, 1.0, 40_000))
        chain = rng_factory("chain")
        detected = photons[chain.random(photons.size) < 0.3]
        detected = detected + chain.normal(0.0, 1e-9, detected.size)
        darks = chain.uniform(0.0, 1.0, int(chain.poisson(20e3)))
        expected = _dead_time_loop(
            np.sort(np.concatenate([detected, darks])), dead_time_s
        )
        stream = rng_factory("chain")
        with mock.patch.object(tdc, "CLICK_BLOCK", block):
            clicks = det.detect(photons, 1.0, stream)
        assert np.array_equal(clicks, expected)
        assert stream.position == chain.position

    @pytest.mark.parametrize("ticks_per_click", [40.0, 0.5])
    def test_dead_time_ties_sparse_and_dense(
        self, rng_factory, ticks_per_click
    ):
        # Dyadic ticks make every gap exact, so many sums of gaps land on
        # the dead time itself.  Sparse streams (a tenth of the clicks
        # blocked) hop by stepping forward, dense ones by binary search.
        clicks = 20_000
        ticks = rng_factory("ties").integers(
            0, int(clicks * ticks_per_click), size=clicks
        )
        times = np.sort(ticks.astype(float)) * 2.0**-20
        dead_time = 4 * 2.0**-20
        assert np.array_equal(
            _apply_dead_time(times, dead_time),
            _dead_time_loop(times, dead_time),
        )

    def test_expected_singles_rate(self):
        det = DetectorModel(efficiency=0.1, dark_count_rate_hz=500.0)
        assert det.expected_singles_rate_hz(1000.0) == 0.1 * 1000.0 + 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DetectorModel(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            DetectorModel(dark_count_rate_hz=-1.0)
        with pytest.raises(ConfigurationError):
            DetectorModel().detect(np.empty(0), 0.0, None)


class TestBiphotonSource:
    def test_pair_rate_realised(self, rng):
        src = BiphotonSource(pair_rate_hz=5000.0, linewidth_hz=110e6)
        stream = src.generate(20.0, rng)
        assert abs(stream.signal_times_s.size / 20.0 - 5000.0) / 5000.0 < 0.05

    def test_delay_distribution_laplace(self, rng):
        src = BiphotonSource(pair_rate_hz=50_000.0, linewidth_hz=110e6)
        stream = src.generate(2.0, rng)
        delays = stream.signal_times_s - stream.idler_times_s
        # Laplace with rate Gamma = 2*pi*linewidth: mean |delay| = 1/Gamma.
        gamma = 2 * np.pi * 110e6
        assert np.isclose(np.mean(np.abs(delays)), 1.0 / gamma, rtol=0.03)
        # Symmetric around zero.
        assert abs(np.mean(delays)) < 0.2 / gamma

    def test_signs_drawn_as_by_choice(self, rng_factory):
        # One uniform per pair, negative below one half: the delays and
        # cursor of multiplying the magnitudes by choice([-1.0, 1.0]).
        src = BiphotonSource(pair_rate_hz=50_000.0, linewidth_hz=110e6)
        chain = rng_factory("signs")
        n = int(chain.poisson(src.pair_rate_hz))
        emission = np.sort(chain.uniform(0.0, 1.0, n))
        delay = chain.exponential(1.0 / src.correlation_decay_rate, n)
        delay = delay * chain.choice(np.array([-1.0, 1.0]), size=n)
        stream = rng_factory("signs")
        pairs = src.generate(1.0, stream)
        assert np.array_equal(pairs.signal_times_s, emission + delay / 2.0)
        assert np.array_equal(pairs.idler_times_s, emission - delay / 2.0)
        assert stream.position == chain.position

    def test_correlation_decay_rate(self):
        src = BiphotonSource(pair_rate_hz=1.0, linewidth_hz=110e6)
        assert np.isclose(src.correlation_decay_rate, 2 * np.pi * 110e6)

    def test_zero_rate_empty(self, rng):
        src = BiphotonSource(pair_rate_hz=0.0, linewidth_hz=110e6)
        stream = src.generate(1.0, rng)
        assert stream.signal_times_s.size == stream.idler_times_s.size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BiphotonSource(pair_rate_hz=-1.0, linewidth_hz=1.0)
        with pytest.raises(ConfigurationError):
            BiphotonSource(pair_rate_hz=1.0, linewidth_hz=0.0)
        with pytest.raises(ConfigurationError):
            BiphotonSource(1.0, 1e6).generate(0.0, None)


class TestStreams:
    def test_uncorrelated_rate(self, rng):
        stream = uncorrelated_stream(2000.0, 10.0, rng)
        assert abs(stream.size / 10.0 - 2000.0) < 200.0
        assert np.all(np.diff(stream) >= 0)

    def test_thin_stream_fraction(self, rng):
        times = np.sort(rng.uniform(0, 1, 100_000))
        kept = thin_stream(times, 0.3, rng)
        assert abs(kept.size / times.size - 0.3) < 0.01

    def test_thin_stream_unity_copies(self, rng):
        times = np.array([1.0, 2.0])
        kept = thin_stream(times, 1.0, rng)
        assert np.array_equal(kept, times)
        kept[0] = 99.0
        assert times[0] == 1.0

    def test_thin_stream_validation(self, rng):
        with pytest.raises(ConfigurationError):
            thin_stream(np.array([1.0]), 1.5, rng)
