"""Unit tests for post-selection probabilities, stabilisation and fringes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.fringes import FringeScan
from repro.timebin.postselect import (
    central_slot_povm,
    coincidence_probability,
    ideal_twofold_fringe,
)
from repro.timebin.stabilization import PhaseController


@pytest.fixture
def bell():
    return DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2])


@pytest.fixture
def four_photon():
    return DensityMatrix.from_ket(time_bin_multiphoton_state(0.0, 2), [2] * 4)


class TestPOVM:
    def test_povm_pair_sums_to_half_identity(self):
        m0 = central_slot_povm(0.3)
        m_pi = central_slot_povm(0.3 + np.pi)
        assert np.allclose(m0 + m_pi, np.eye(2) / 2.0)

    def test_povm_positive(self):
        eigenvalues = np.linalg.eigvalsh(central_slot_povm(1.0))
        assert eigenvalues.min() >= -1e-12

    def test_transmission_scales(self):
        assert np.allclose(
            central_slot_povm(0.5, transmission=0.5),
            0.5 * central_slot_povm(0.5),
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            central_slot_povm(0.0, transmission=0.0)


class TestCoincidenceProbability:
    def test_matches_analytic_twofold(self, bell):
        for pa, pb in [(0.0, 0.0), (0.4, 1.1), (2.0, -0.5)]:
            povm_value = coincidence_probability(bell, [pa, pb])
            analytic = ideal_twofold_fringe(np.array([pa + pb]))[0]
            assert np.isclose(povm_value, analytic)

    def test_pair_phase_shifts_fringe(self):
        theta = 0.8
        state = DensityMatrix.from_ket(time_bin_bell_state(theta / 2.0), [2, 2])
        povm_value = coincidence_probability(state, [0.2, 0.3])
        analytic = ideal_twofold_fringe(np.array([0.5]), pair_phase_rad=theta)[0]
        assert np.isclose(povm_value, analytic)

    def test_matches_analytic_fourfold(self, four_photon):
        # Two identical pairs, all four analysers at φ: the square of the
        # two-photon fringe at phase sum 2φ, oscillating at twice the scan
        # phase.
        for phi in (0.0, 0.3, 1.2):
            povm_value = coincidence_probability(four_photon, [phi] * 4)
            analytic = ideal_twofold_fringe(np.array([2.0 * phi]))[0] ** 2
            assert np.isclose(povm_value, analytic)

    def test_white_noise_floor(self, bell):
        mixed = add_white_noise(bell, 0.0)
        # Fully mixed state: flat fringe at (1/4)^2 * (1/... ) = 1/16 * 1/4.
        values = [
            coincidence_probability(mixed, [0.0, p]) for p in (0.0, 1.0, 2.0)
        ]
        assert np.allclose(values, values[0])

    def test_phase_count_mismatch(self, bell):
        with pytest.raises(ConfigurationError):
            coincidence_probability(bell, [0.0])

    def test_non_qubit_rejected(self):
        state = DensityMatrix.maximally_mixed([3])
        with pytest.raises(DimensionMismatchError):
            coincidence_probability(state, [0.0])


class TestPhaseController:
    def test_locked_errors_small(self, rng):
        controller = PhaseController(residual_sigma_rad=0.05)
        set_points = np.linspace(0, 2 * np.pi, 50)
        actual = controller.sample_phase_errors(set_points, 1.0, rng)
        assert np.std(actual - set_points) < 0.1

    def test_unlocked_drifts(self, rng):
        controller = PhaseController(locked=False, drift_rate_rad_per_sqrt_s=1.0)
        set_points = np.zeros(200)
        actual = controller.sample_phase_errors(set_points, 10.0, rng)
        # Random walk: the late-time spread must far exceed the early one.
        assert np.std(actual[-50:]) > np.std(actual[:10])

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            PhaseController(residual_sigma_rad=-0.1)
        with pytest.raises(ConfigurationError):
            PhaseController().sample_phase_errors(np.zeros(3), 0.0, rng)


class TestFringeScan:
    def test_ideal_bell_high_visibility(self, bell, rng):
        scan = FringeScan(
            state=bell,
            event_rate_hz=2000.0,
            dwell_time_s=30.0,
            controller=PhaseController(residual_sigma_rad=0.0),
        )
        result = scan.run(rng)
        assert result.visibility > 0.98

    def test_white_noise_sets_visibility(self, bell, rng):
        noisy = add_white_noise(bell, 0.83)
        scan = FringeScan(
            state=noisy,
            event_rate_hz=5000.0,
            dwell_time_s=60.0,
            controller=PhaseController(residual_sigma_rad=0.0),
        )
        result = scan.run(rng)
        assert abs(result.visibility - 0.83) < 0.03

    def test_phase_noise_reduces_visibility(self, bell, rng_factory):
        quiet = FringeScan(
            state=bell, event_rate_hz=5000.0, dwell_time_s=60.0,
            controller=PhaseController(residual_sigma_rad=0.0),
        ).run(rng_factory("q"))
        noisy = FringeScan(
            state=bell, event_rate_hz=5000.0, dwell_time_s=60.0,
            controller=PhaseController(residual_sigma_rad=0.5),
        ).run(rng_factory("n"))
        assert noisy.visibility < quiet.visibility

    def test_unlocked_kills_fringe(self, bell, rng):
        scan = FringeScan(
            state=bell, event_rate_hz=5000.0, dwell_time_s=60.0,
            controller=PhaseController(locked=False, drift_rate_rad_per_sqrt_s=2.0),
        )
        result = scan.run(rng, num_steps=48)
        assert result.visibility < 0.5

    def test_fourfold_visibility_formula(self, four_photon, rng):
        # White-noise fraction V gives fringe visibility 2V/(1+V).
        v_state = 0.8
        noisy = add_white_noise(four_photon, v_state)
        scan = FringeScan(
            state=noisy, event_rate_hz=20_000.0, dwell_time_s=120.0,
            scanned_photon=None,
            controller=PhaseController(residual_sigma_rad=0.0),
        )
        result = scan.run(rng)
        expected = 2 * v_state / (1 + v_state)
        assert abs(result.visibility - expected) < 0.03

    def test_visibility_error_positive(self, bell, rng):
        scan = FringeScan(state=bell, event_rate_hz=500.0, dwell_time_s=10.0)
        result = scan.run(rng)
        assert result.visibility_error > 0

    def test_validation(self, bell, rng):
        with pytest.raises(ConfigurationError):
            FringeScan(state=bell, event_rate_hz=-1.0)
        with pytest.raises(ConfigurationError):
            FringeScan(state=bell, event_rate_hz=1.0, scanned_photon=5)
        with pytest.raises(ConfigurationError):
            FringeScan(state=bell, event_rate_hz=1.0).run(rng, num_steps=3)
