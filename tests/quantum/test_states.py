"""Unit tests for DensityMatrix."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, StateValidationError
from repro.quantum.qubits import bell_state, computational_ket
from repro.quantum.states import DensityMatrix


class TestConstruction:
    def test_from_ket_normalises(self):
        state = DensityMatrix.from_ket(np.array([3.0, 4.0]))
        assert np.isclose(np.trace(state.matrix), 1.0)
        assert np.isclose(state.matrix[0, 0].real, 9.0 / 25.0)

    def test_zero_ket_rejected(self):
        with pytest.raises(StateValidationError):
            DensityMatrix.from_ket(np.zeros(2))

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateValidationError):
            DensityMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateValidationError):
            DensityMatrix(bad)

    def test_dims_must_factorise(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4) / 4, dims=[3, 2])

    def test_matrix_is_read_only(self):
        state = DensityMatrix.maximally_mixed([2])
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 5.0


class TestFunctionals:
    def test_pure_state_purity_one(self):
        state = DensityMatrix.from_ket(computational_ket("0"))
        assert np.isclose(state.purity(), 1.0)

    def test_maximally_mixed_purity(self):
        state = DensityMatrix.maximally_mixed([2, 2])
        assert np.isclose(state.purity(), 0.25)

    def test_fidelity_identical_states(self):
        state = DensityMatrix.from_ket(bell_state("phi+"), [2, 2])
        assert np.isclose(state.fidelity(state), 1.0)

    def test_fidelity_orthogonal_states(self):
        a = DensityMatrix.from_ket(computational_ket("0"))
        b = DensityMatrix.from_ket(computational_ket("1"))
        assert np.isclose(a.fidelity(b), 0.0, atol=1e-10)

    def test_fidelity_against_ket(self):
        state = DensityMatrix.from_ket(bell_state("phi+"), [2, 2])
        assert np.isclose(state.fidelity(bell_state("phi+")), 1.0)

    def test_fidelity_symmetry(self):
        a = DensityMatrix.from_ket(computational_ket("0"))
        mixed = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        assert np.isclose(a.fidelity(mixed), mixed.fidelity(a))

    def test_fidelity_dimension_mismatch(self):
        a = DensityMatrix.maximally_mixed([2])
        b = DensityMatrix.maximally_mixed([2, 2])
        with pytest.raises(DimensionMismatchError):
            a.fidelity(b)

    def test_expectation_of_identity(self):
        state = DensityMatrix.maximally_mixed([2])
        assert np.isclose(state.expectation(np.eye(2)), 1.0)

    def test_probability_clipped(self):
        state = DensityMatrix.from_ket(computational_ket("0"))
        proj = np.diag([1.0, 0.0]).astype(complex)
        assert 0.0 <= state.probability(proj) <= 1.0

