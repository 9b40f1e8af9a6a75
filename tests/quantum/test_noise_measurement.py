"""Unit tests for noise channels and measurement sampling."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.quantum import measurement, noise
from repro.quantum.operators import PAULI_Z
from repro.quantum.qubits import bell_state, computational_ket, plus_state
from repro.quantum.states import DensityMatrix, ket_to_density
from repro.quantum.tomography import setting_projectors


@pytest.fixture
def bell():
    return ket_to_density(bell_state("phi+"), [2, 2])


class TestWhiteNoise:
    def test_identity_at_v1(self, bell):
        assert noise.add_white_noise(bell, 1.0).is_close(bell)

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


class TestDepolarizing:
    def test_full_depolarize_gives_mixed_qubit(self):
        state = ket_to_density(computational_ket("0"))
        result = noise.depolarizing(state, 1.0, 0)
        # Uniform Pauli twirl with p=1 leaves (rho + X rho X + Y rho Y + Z rho Z)/3
        # acting only through the error branch; for |0><0| this is not exactly
        # I/2, but the Bloch vector is scaled by (1 - 4p/3) = -1/3.
        z_expectation = result.expectation(PAULI_Z)
        assert np.isclose(z_expectation, -1.0 / 3.0)

    def test_bloch_contraction(self):
        state = ket_to_density(plus_state())
        p = 0.3
        result = noise.depolarizing(state, p, 0)
        x_op = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.isclose(result.expectation(x_op), 1.0 - 4.0 * p / 3.0)

    def test_trace_preserved(self, bell):
        result = noise.depolarizing(bell, 0.2, 1)
        assert np.isclose(np.trace(result.matrix).real, 1.0)


class TestDephasing:
    def test_kills_coherence_at_half(self):
        state = ket_to_density(plus_state())
        result = noise.dephasing(state, 0.5, 0)
        assert np.isclose(abs(result.matrix[0, 1]), 0.0, atol=1e-12)

    def test_preserves_populations(self, bell):
        result = noise.dephasing(bell, 0.3, 0)
        assert np.allclose(np.diag(result.matrix), np.diag(bell.matrix))


class TestAmplitudeDamping:
    def test_full_damping_resets_to_ground(self):
        state = ket_to_density(computational_ket("1"))
        result = noise.amplitude_damping(state, 1.0, 0)
        assert np.isclose(result.matrix[0, 0].real, 1.0)

    def test_partial_damping_population(self):
        state = ket_to_density(computational_ket("1"))
        result = noise.amplitude_damping(state, 0.3, 0)
        assert np.isclose(result.matrix[1, 1].real, 0.7)

    def test_non_qubit_rejected(self):
        state = DensityMatrix.maximally_mixed([3])
        with pytest.raises(PhysicsError):
            noise.amplitude_damping(state, 0.1, 0)


class TestMultiPairVisibility:
    def test_zero_mu_perfect(self):
        assert noise.multi_pair_visibility(0.0) == 1.0

    def test_decreasing_in_mu(self):
        values = [noise.multi_pair_visibility(mu) for mu in (0.0, 0.01, 0.05, 0.1)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(PhysicsError):
            noise.multi_pair_visibility(-0.01)


class TestBornSampling:
    def test_probabilities_sum_to_one(self, bell):
        projs = setting_projectors("ZZ")
        probs = measurement.born_probabilities(bell, projs)
        assert np.isclose(probs.sum(), 1.0)

    def test_deterministic_outcome(self, rng):
        state = ket_to_density(computational_ket("0"))
        projs = setting_projectors("Z")
        counts = measurement.sample_outcomes(state, projs, 100, rng)
        assert counts[0] == 100
        assert counts[1] == 0

    def test_balanced_outcome_statistics(self, rng):
        state = ket_to_density(plus_state())
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
