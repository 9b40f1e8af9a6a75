"""Unit tests for Pauli algebra, measurement bases and standard qubit states."""

import numpy as np
import pytest

from repro.quantum import operators, qubits


class TestPaulis:
    def test_pauli_squares_to_identity(self):
        for pauli in (operators.PAULI_X, operators.PAULI_Y, operators.PAULI_Z):
            assert np.allclose(pauli @ pauli, np.eye(2))

    def test_anticommutation(self):
        x, y = operators.PAULI_X, operators.PAULI_Y
        assert np.allclose(x @ y + y @ x, np.zeros((2, 2)))

    def test_xy_gives_iz(self):
        assert np.allclose(
            operators.PAULI_X @ operators.PAULI_Y, 1j * operators.PAULI_Z
        )


class TestMeasurementBasis:
    def test_z_basis_projectors(self):
        plus, minus = operators.measurement_basis([0, 0, 1])
        assert np.allclose(plus, np.diag([1.0, 0.0]))
        assert np.allclose(minus, np.diag([0.0, 1.0]))

    def test_projectors_complete(self):
        plus, minus = operators.measurement_basis([1, 1, 0])
        assert np.allclose(plus + minus, np.eye(2))

    def test_projectors_idempotent(self):
        plus, _ = operators.measurement_basis([1, 0, 1])
        assert np.allclose(plus @ plus, plus)

    def test_direction_normalised(self):
        assert np.allclose(
            operators.measurement_basis([0, 0, 2]),
            operators.measurement_basis([0, 0, 1]),
        )

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            operators.measurement_basis([0, 0, 0])


class TestQubitStates:
    def test_computational_ket(self):
        ket = qubits.computational_ket("10")
        assert np.isclose(abs(ket[2]), 1.0)

    def test_computational_rejects_non_binary(self):
        with pytest.raises(ValueError):
            qubits.computational_ket("012")

    def test_bell_states_orthonormal(self):
        kinds = ["phi+", "phi-", "psi+", "psi-"]
        states = [qubits.bell_state(k) for k in kinds]
        gram = np.array(
            [[abs(np.vdot(a, b)) for b in states] for a in states]
        )
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_bell_unknown_kind(self):
        with pytest.raises(ValueError):
            qubits.bell_state("sigma+")

    def test_bell_phase_branches(self):
        ket = qubits.bell_state("phi+", phase=np.pi)
        expected = qubits.bell_state("phi-")
        assert np.isclose(abs(np.vdot(ket, expected)), 1.0)

    def test_two_bell_pairs_dimension(self):
        ket = qubits.two_bell_pairs()
        assert ket.shape == (16,)
        assert np.isclose(np.linalg.norm(ket), 1.0)

    def test_product_state_normalises_factors(self):
        ket = qubits.product_state(np.array([2.0, 0.0]), np.array([0.0, 3.0]))
        assert np.isclose(np.linalg.norm(ket), 1.0)
        assert np.isclose(abs(ket[1]), 1.0)
