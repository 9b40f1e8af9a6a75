"""Failure injection: broken apparatus must degrade the observables the
way the paper's design arguments predict — and never crash.

Each test breaks exactly one element of the simulated setup and checks
that the corresponding figure of merit collapses (and nothing else
errors out).  These tests double as negative controls for the headline
results: the effects the paper attributes to design choices vanish when
the choice is undone.
"""

import numpy as np
import pytest

from repro.core.calibration import TimeBinCalibration
from repro.core.schemes import HeraldedSingleScheme, TimeBinScheme, TypeIIScheme
from repro.detection.coincidence import car_from_tags
from repro.detection.spd import DetectorModel
from repro.detection.timetags import BiphotonSource
from repro.photonics.fwm import TypeIIProcess
from repro.photonics.resonator import ring_for_linewidth
from repro.photonics.waveguide import Waveguide
from repro.quantum.bell import CLASSICAL_BOUND, chsh_value
from repro.timebin.fringes import FringeScan
from repro.timebin.stabilization import PhaseController


@pytest.mark.slow
class TestDetectorFailures:
    def test_dark_count_flood_kills_car(self, rng):
        """A detector flooded with darks (e.g. failed cooling) destroys
        the CAR even though true pairs still arrive."""
        source = BiphotonSource(pair_rate_hz=3000.0, linewidth_hz=110e6)
        # 3 s keeps both margins wide (CAR ~20-27 healthy, ~1.00 flooded
        # over seeds 0-4) at a tenth of the clicks and memory of 30 s.
        duration = 3.0
        stream = source.generate(duration, rng.child("pairs"))
        healthy = DetectorModel(
            efficiency=0.1, dark_count_rate_hz=15e3,
            jitter_sigma_s=120e-12, dead_time_s=0.0,
        )
        flooded = DetectorModel(
            efficiency=0.1, dark_count_rate_hz=2e6,
            jitter_sigma_s=120e-12, dead_time_s=0.0,
        )
        s_ok = healthy.detect(stream.signal_times_s, duration, rng.child("s1"))
        i_ok = healthy.detect(stream.idler_times_s, duration, rng.child("i1"))
        s_bad = flooded.detect(stream.signal_times_s, duration, rng.child("s2"))
        i_bad = flooded.detect(stream.idler_times_s, duration, rng.child("i2"))
        car_ok = car_from_tags(s_ok, i_ok, duration, window_s=4e-9).car
        car_bad = car_from_tags(s_bad, i_bad, duration, window_s=4e-9).car
        assert car_bad < 2.0 < car_ok

    def test_saturated_detector_clips_rate(self, rng):
        """Dead time comparable to the click spacing saturates singles."""
        source = BiphotonSource(pair_rate_hz=200_000.0, linewidth_hz=110e6)
        duration = 5.0
        stream = source.generate(duration, rng.child("pairs"))
        saturated = DetectorModel(
            efficiency=0.9, dark_count_rate_hz=0.0,
            jitter_sigma_s=0.0, dead_time_s=50e-6,
        )
        clicks = saturated.detect(stream.signal_times_s, duration, rng.child("d"))
        # Rate is clipped near 1/dead_time regardless of input flux.
        assert clicks.size / duration < 1.05 / 50e-6

    def test_huge_jitter_washes_out_coherence_peak(self, rng):
        """Jitter far beyond the coherence time flattens the g2 peak."""
        from repro.detection.coincidence import coincidence_histogram

        source = BiphotonSource(pair_rate_hz=50_000.0, linewidth_hz=110e6)
        duration = 10.0
        stream = source.generate(duration, rng.child("pairs"))
        blurry = DetectorModel(
            efficiency=0.5, dark_count_rate_hz=0.0,
            jitter_sigma_s=30e-9, dead_time_s=0.0,
        )
        s = blurry.detect(stream.signal_times_s, duration, rng.child("s"))
        i = blurry.detect(stream.idler_times_s, duration, rng.child("i"))
        _, counts = coincidence_histogram(s, i, 500e-12, 10e-9)
        # No resolved peak: max bin within ~4 sigma of the mean.
        assert counts.max() < counts.mean() + 4 * np.sqrt(counts.mean() + 1)


class TestInterferometerFailures:
    def test_unlocked_interferometer_no_violation(self, rng):
        """Without phase stabilisation the Bell test fails outright."""
        scheme = TimeBinScheme()
        scan = FringeScan(
            state=scheme.pair_state(),
            event_rate_hz=scheme.event_rate_hz(),
            dwell_time_s=30.0,
            controller=PhaseController(
                locked=False, drift_rate_rad_per_sqrt_s=2.0
            ),
        )
        result = scan.run(rng, num_steps=48)
        s_value = 2.0 * np.sqrt(2.0) * min(result.visibility, 1.0)
        assert s_value < CLASSICAL_BOUND

    def test_overdriven_source_no_violation(self):
        """Multi-pair emission at high mu breaks CHSH at the state level."""
        strong_pump = TimeBinCalibration(mu_per_pulse=0.45)
        scheme = TimeBinScheme(calibration=strong_pump)
        assert chsh_value(scheme.pair_state()) < CLASSICAL_BOUND


class TestDesignUndone:
    def test_square_waveguide_breaks_type_ii_suppression(self):
        """Undoing the birefringent design removes the TE/TM offset, so
        the stimulated process sits back on resonance."""
        square = Waveguide(width_m=1.45e-6, height_m=1.45e-6)
        ring = ring_for_linewidth(square, 200e9, 800e6)
        process = TypeIIProcess(ring)
        assert process.stimulated_suppression_db() < 1.0

    def test_paper_waveguide_preserves_suppression(self):
        process = TypeIIScheme().process()
        assert process.stimulated_suppression_db() > 30.0

    def test_wrong_channel_pairing_shows_no_correlation(self, rng):
        """Pairing signal of one channel with idler of another (the E1
        off-diagonal) yields accidental-level CAR."""
        scheme = HeraldedSingleScheme()
        duration = 20.0
        signal_1, _ = scheme.detected_streams(1, duration, rng.child("a"))
        _, idler_2 = scheme.detected_streams(2, duration, rng.child("b"))
        result = car_from_tags(
            signal_1, idler_2, duration,
            window_s=scheme.calibration.coincidence_window_s,
        )
        assert result.car < 2.0


class TestConfigurationRobustness:
    def test_zero_power_runs_cleanly(self, rng):
        """A pump at zero power produces darks only, no crash."""
        scheme = HeraldedSingleScheme()
        source = BiphotonSource(pair_rate_hz=0.0, linewidth_hz=110e6)
        stream = source.generate(5.0, rng.child("p"))
        detector = scheme.detector(1)
        clicks = detector.detect(stream.signal_times_s, 5.0, rng.child("d"))
        assert clicks.size > 0  # darks

    def test_fringe_scan_with_tiny_rate(self, rng):
        """Near-zero event rates give near-zero counts but valid fits."""
        scheme = TimeBinScheme()
        scan = FringeScan(
            state=scheme.pair_state(), event_rate_hz=0.5, dwell_time_s=5.0
        )
        result = scan.run(rng)
        assert np.isfinite(result.visibility) or result.counts.sum() == 0
