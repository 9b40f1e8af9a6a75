"""Cross-module consistency: independent paths must agree.

Each test computes the same physical quantity along two different code
paths (e.g. Monte-Carlo detection chain vs analytic formula, POVM
machinery vs closed form) and requires agreement.  These are the tests
that catch convention mismatches between substrates.
"""

import math

import numpy as np
import pytest

from repro.core.schemes import HeraldedSingleScheme, TimeBinScheme
from repro.detection.coincidence import car_from_tags, expected_car
from repro.detection.spd import DetectorModel
from repro.detection.tdc import TimeToDigitalConverter
from repro.detection.timetags import BiphotonSource
from repro.quantum.bell import chsh_value, visibility_to_chsh
from repro.timebin.fringes import FringeScan
from repro.timebin.stabilization import PhaseController
from repro.utils.fitting import fit_coincidence_peak, linewidth_to_decay_rate


class TestMonteCarloVsAnalytic:
    def test_car_chain_matches_formula(self, rng):
        """Full detection chain CAR equals the analytic (C+A)/A estimate."""
        pair_rate = 5000.0
        linewidth = 500e6  # broad: the 4 ns window captures ~everything
        efficiency = 0.2
        dark = 5000.0
        window = 8e-9
        duration = 60.0

        source = BiphotonSource(pair_rate_hz=pair_rate, linewidth_hz=linewidth)
        stream = source.generate(duration, rng.child("pairs"))
        detector = DetectorModel(
            efficiency=efficiency, dark_count_rate_hz=dark,
            jitter_sigma_s=50e-12, dead_time_s=0.0,
        )
        s = detector.detect(stream.signal_times_s, duration, rng.child("s"))
        i = detector.detect(stream.idler_times_s, duration, rng.child("i"))
        measured = car_from_tags(s, i, duration, window_s=window,
                                 accidental_offset_s=200e-9)

        capture = 1.0 - math.exp(
            -linewidth_to_decay_rate(linewidth) * window / 2.0
        )
        singles = pair_rate * efficiency + dark
        predicted = expected_car(
            pair_rate * efficiency**2 * capture, singles, singles, window
        )
        assert abs(measured.car - predicted) / predicted < 0.25

    def test_linewidth_round_trip_through_chain(self, rng):
        """Generate at Δν, detect with jitter, fit: recover Δν."""
        for linewidth in (60e6, 110e6, 300e6):
            source = BiphotonSource(pair_rate_hz=40_000.0, linewidth_hz=linewidth)
            duration = 30.0
            stream = source.generate(duration, rng.child(f"p{linewidth}"))
            detector = DetectorModel(
                efficiency=0.5, dark_count_rate_hz=100.0,
                jitter_sigma_s=100e-12, dead_time_s=0.0,
            )
            s = detector.detect(stream.signal_times_s, duration,
                                rng.child(f"s{linewidth}"))
            i = detector.detect(stream.idler_times_s, duration,
                                rng.child(f"i{linewidth}"))
            tdc = TimeToDigitalConverter(bin_width_s=81e-12)
            centres, counts = tdc.delay_histogram(s, i, max_delay_s=12e-9)
            fit = fit_coincidence_peak(
                centres, counts, math.sqrt(2) * 100e-12, fix_jitter=True
            )
            assert abs(fit.linewidth_hz - linewidth) / linewidth < 0.1, linewidth

    def test_fringe_visibility_matches_state_chsh(self, rng):
        """Measured visibility maps onto the state's true CHSH value."""
        scheme = TimeBinScheme()
        state = scheme.pair_state()
        scan = FringeScan(
            state=state,
            event_rate_hz=5000.0,
            dwell_time_s=120.0,
            controller=PhaseController(residual_sigma_rad=0.0),
        )
        result = scan.run(rng, num_steps=36)
        s_from_visibility = visibility_to_chsh(min(result.visibility, 1.0))
        s_true = chsh_value(state)
        assert abs(s_from_visibility - s_true) < 0.08


class TestSchemeLevelConsistency:
    @pytest.mark.slow
    def test_heralded_rates_consistent_with_calibration(self, rng):
        """Detected rates through the full chain match the calibrated
        generated-rate × efficiency² × window-capture prediction."""
        scheme = HeraldedSingleScheme()
        duration = 120.0
        order = 1
        signal, idler = scheme.detected_streams(order, duration, rng)
        result = car_from_tags(
            signal, idler, duration,
            window_s=scheme.calibration.coincidence_window_s,
        )
        generated = scheme.calibration.generated_pair_rate_hz()
        efficiency = scheme.calibration.arm_efficiencies[order - 1]
        capture = 1.0 - math.exp(
            -linewidth_to_decay_rate(scheme.calibration.linewidth_hz)
            * scheme.calibration.coincidence_window_s / 2.0
        )
        predicted = generated * efficiency**2 * capture
        assert abs(result.true_coincidence_rate_hz - predicted) / predicted < 0.2

    def test_pair_state_visibility_equals_calibration(self):
        scheme = TimeBinScheme()
        state = scheme.pair_state()
        # Werner weight V leaves CHSH = 2sqrt(2) V exactly.
        implied = chsh_value(state) / (2.0 * math.sqrt(2.0))
        assert np.isclose(implied, scheme.calibration.state_visibility, atol=1e-9)
