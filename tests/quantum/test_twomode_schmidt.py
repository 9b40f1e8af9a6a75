"""Unit tests for the Schmidt decomposition."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.quantum.schmidt import SchmidtDecomposition, schmidt_decompose


class TestSchmidt:
    def test_separable_jsa_purity_one(self):
        signal = np.exp(-np.linspace(-2, 2, 21) ** 2)
        idler = np.exp(-np.linspace(-2, 2, 21) ** 2 / 2)
        jsa = np.outer(signal, idler)
        assert np.isclose(schmidt_decompose(jsa).purity, 1.0, atol=1e-10)

    def test_correlated_jsa_less_pure(self):
        grid = np.linspace(-2, 2, 41)
        s, i = np.meshgrid(grid, grid, indexing="ij")
        # Strong spectral anti-correlation (energy conservation ridge).
        jsa = np.exp(-((s + i) ** 2) / 0.05) * np.exp(-((s - i) ** 2) / 8)
        purity = schmidt_decompose(jsa).purity
        assert purity < 0.5

    def test_zero_jsa_rejected(self):
        with pytest.raises(PhysicsError):
            schmidt_decompose(np.zeros((4, 4)))

    def test_coefficients_validation(self):
        with pytest.raises(PhysicsError):
            SchmidtDecomposition(coefficients=np.array([1.0, 1.0]))

    def test_entropy_zero_for_single_mode(self):
        # One Schmidt mode: no entanglement, a pure heralded photon.
        decomposition = SchmidtDecomposition(coefficients=np.array([1.0]))
        assert decomposition.purity == 1.0
        assert -np.log2(decomposition.purity) == 0.0

    def test_uniform_coefficients_entropy(self):
        # n equal modes: purity 1/n, and the Rényi-2 entropy −log₂ P is
        # log₂ n bits, as is the entanglement entropy of a flat spectrum.
        n = 4
        coeffs = np.full(n, 1.0 / np.sqrt(n))
        decomposition = SchmidtDecomposition(coefficients=coeffs)
        assert np.isclose(decomposition.purity, 1.0 / n)
        assert np.isclose(-np.log2(decomposition.purity), 2.0)
