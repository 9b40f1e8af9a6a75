"""Unit tests for the white-noise channel, the multi-pair visibility ceiling
and measurement sampling."""

import dataclasses

import numpy as np
import pytest

from repro.core.calibration import TIME_BIN_DEFAULTS
from repro.errors import PhysicsError
from repro.quantum import measurement, noise
from repro.quantum.qubits import bell_state, computational_ket
from repro.quantum.states import DensityMatrix
from repro.quantum.tomography import setting_projectors


@pytest.fixture
def bell():
    return DensityMatrix.from_ket(bell_state("phi+"), [2, 2])


class TestWhiteNoise:
    def test_identity_at_v1(self, bell):
        assert np.allclose(noise.add_white_noise(bell, 1.0).matrix, bell.matrix)

    def test_mixed_at_v0(self, bell):
        result = noise.add_white_noise(bell, 0.0)
        assert np.allclose(result.matrix, np.eye(4) / 4)

    def test_purity_decreases(self, bell):
        purities = [
            noise.add_white_noise(bell, v).purity() for v in (1.0, 0.8, 0.5, 0.2)
        ]
        assert all(a >= b for a, b in zip(purities, purities[1:]))

    def test_out_of_range_rejected(self, bell):
        with pytest.raises(PhysicsError):
            noise.add_white_noise(bell, 1.5)

    def test_fidelity_formula(self, bell):
        # F(Werner(V), bell) = V + (1-V)/4.
        for v in (0.5, 0.83):
            werner = noise.add_white_noise(bell, v)
            assert np.isclose(werner.fidelity(bell), v + (1 - v) / 4, atol=1e-9)


class TestMultiPairVisibility:
    # The ceiling 1/(1+2μ) that double pairs put on the fringe visibility.
    @staticmethod
    def ceiling(mu):
        return dataclasses.replace(
            TIME_BIN_DEFAULTS, mu_per_pulse=mu
        ).multi_pair_visibility

    def test_zero_mu_perfect(self):
        assert self.ceiling(0.0) == 1.0

    def test_decreasing_in_mu(self):
        values = [self.ceiling(mu) for mu in (0.0, 0.01, 0.05, 0.1)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBornSampling:
    def test_probabilities_sum_to_one(self, bell):
        projs = setting_projectors("ZZ")
        probs = measurement.born_probabilities(bell, projs)
        assert np.isclose(probs.sum(), 1.0)

    def test_deterministic_outcome(self, rng):
        state = DensityMatrix.from_ket(computational_ket("0"))
        projs = setting_projectors("Z")
        counts = measurement.sample_outcomes(state, projs, 100, rng)
        assert counts[0] == 100
        assert counts[1] == 0

    def test_balanced_outcome_statistics(self, rng):
        state = DensityMatrix.from_ket(computational_ket("0") + computational_ket("1"))
        projs = setting_projectors("Z")
        counts = measurement.sample_outcomes(state, projs, 10000, rng)
        assert abs(counts[0] - 5000) < 300

    def test_incomplete_set_rejected_for_sampling(self, bell, rng):
        projs = setting_projectors("ZZ")[:2]
        with pytest.raises(PhysicsError):
            measurement.sample_outcomes(bell, projs, 10, rng)

    def test_over_complete_rejected(self, bell):
        projs = setting_projectors("ZZ") + [np.eye(4, dtype=complex)]
        with pytest.raises(PhysicsError):
            measurement.born_probabilities(bell, projs)
