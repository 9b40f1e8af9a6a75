"""Unit tests for entanglement measures."""

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.quantum import entanglement
from repro.quantum.noise import add_white_noise
from repro.quantum.qubits import bell_state, computational_ket
from repro.quantum.states import DensityMatrix, ket_to_density


@pytest.fixture
def bell():
    return ket_to_density(bell_state("phi+"), [2, 2])


@pytest.fixture
def product():
    return ket_to_density(computational_ket("01"), [2, 2])


class TestConcurrence:
    def test_bell_state_maximal(self, bell):
        assert np.isclose(entanglement.concurrence(bell), 1.0)

    def test_product_state_zero(self, product):
        assert np.isclose(entanglement.concurrence(product), 0.0, atol=1e-10)

    def test_werner_state_formula(self, bell):
        # For a Werner state with visibility V, C = max(0, (3V-1)/2).
        for v in (0.2, 0.5, 0.8, 1.0):
            werner = add_white_noise(bell, v)
            expected = max(0.0, (3.0 * v - 1.0) / 2.0)
            assert np.isclose(
                entanglement.concurrence(werner), expected, atol=1e-9
            ), f"V={v}"

    def test_requires_two_qubits(self):
        with pytest.raises(DimensionMismatchError):
            entanglement.concurrence(DensityMatrix.maximally_mixed([2]))

    def test_all_bell_states_maximal(self):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            state = ket_to_density(bell_state(kind), [2, 2])
            assert np.isclose(entanglement.concurrence(state), 1.0)


class TestNegativity:
    def test_bell_negativity_half(self, bell):
        assert np.isclose(entanglement.negativity(bell), 0.5)

    def test_product_zero(self, product):
        assert np.isclose(entanglement.negativity(product), 0.0, atol=1e-10)

    def test_log_negativity_bell(self, bell):
        assert np.isclose(entanglement.log_negativity(bell), 1.0)

    def test_ppt_detects_entanglement(self, bell, product):
        assert not entanglement.is_ppt(bell)
        assert entanglement.is_ppt(product)

    def test_werner_ppt_threshold(self, bell):
        # Werner states are separable iff V <= 1/3.
        assert entanglement.is_ppt(add_white_noise(bell, 0.33))
        assert not entanglement.is_ppt(add_white_noise(bell, 0.35))


class TestPartialTranspose:
    def test_involution(self, bell):
        # Applying the same partial transpose twice returns the original.
        pt = entanglement.partial_transpose(bell, 0)
        reshaped = pt.reshape([2, 2, 2, 2])
        again = np.transpose(reshaped, [2, 1, 0, 3]).reshape(4, 4)
        assert np.allclose(again, bell.matrix)

    def test_bad_subsystem_rejected(self, bell):
        with pytest.raises(ValueError):
            entanglement.partial_transpose(bell, 5)
