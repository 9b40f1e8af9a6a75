"""Unit tests for Pauli algebra and standard qubit states."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.quantum import hilbert, operators, qubits


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

    def test_pauli_string(self):
        xz = operators.pauli_string("XZ")
        assert xz.shape == (4, 4)
        assert np.allclose(xz, np.kron(operators.PAULI_X, operators.PAULI_Z))

    def test_pauli_string_rejects_unknown(self):
        with pytest.raises(ValueError):
            operators.pauli_string("XQ")

    def test_pauli_string_rejects_empty(self):
        with pytest.raises(ValueError):
            operators.pauli_string("")


class TestRotations:
    def test_rotation_is_unitary(self):
        u = operators.qubit_rotation([0, 0, 1], 0.7)
        assert np.allclose(u @ u.conj().T, np.eye(2))

    def test_x_rotation_pi_flips(self):
        u = operators.qubit_rotation([1, 0, 0], np.pi)
        zero = hilbert.basis_ket(2, 0)
        flipped = u @ zero
        assert np.isclose(abs(flipped[1]), 1.0)

    def test_direction_normalised(self):
        u1 = operators.qubit_rotation([0, 0, 2], 0.5)
        u2 = operators.qubit_rotation([0, 0, 1], 0.5)
        assert np.allclose(u1, u2)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            operators.qubit_rotation([0, 0, 0], 0.5)


class TestEmbedding:
    def test_embed_on_first_qubit(self):
        op = operators.embed(operators.PAULI_X, 0, 2)
        assert np.allclose(op, np.kron(operators.PAULI_X, np.eye(2)))

    def test_embed_on_last_qubit(self):
        op = operators.embed(operators.PAULI_Z, 2, 3)
        assert np.allclose(op, np.kron(np.eye(4), operators.PAULI_Z))

    def test_embed_rejects_multiqubit_operator(self):
        with pytest.raises(DimensionMismatchError):
            operators.embed(np.eye(4), 0, 2)

    def test_embed_rejects_bad_target(self):
        with pytest.raises(ValueError):
            operators.embed(operators.PAULI_X, 2, 2)


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

    def test_ghz_normalised(self):
        ket = qubits.ghz_state(3)
        assert np.isclose(np.linalg.norm(ket), 1.0)
        assert np.isclose(abs(ket[0]), 1 / np.sqrt(2))
        assert np.isclose(abs(ket[-1]), 1 / np.sqrt(2))

    def test_ghz_minimum_size(self):
        with pytest.raises(ValueError):
            qubits.ghz_state(1)

    def test_two_bell_pairs_dimension(self):
        ket = qubits.two_bell_pairs()
        assert ket.shape == (16,)
        assert np.isclose(np.linalg.norm(ket), 1.0)

    def test_product_state_normalises_factors(self):
        ket = qubits.product_state(np.array([2.0, 0.0]), np.array([0.0, 3.0]))
        assert np.isclose(np.linalg.norm(ket), 1.0)
        assert np.isclose(abs(ket[1]), 1.0)
