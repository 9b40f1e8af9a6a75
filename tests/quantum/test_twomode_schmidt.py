"""Unit tests for two-mode squeezed vacuum and Schmidt decomposition."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.quantum.schmidt import SchmidtDecomposition, schmidt_decompose
from repro.quantum.twomode import TwoModeSqueezedVacuum


class TestTwoModeSqueezedVacuum:
    def test_mean_photons(self):
        tmsv = TwoModeSqueezedVacuum(0.5)
        assert np.isclose(tmsv.mean_photons_per_arm, np.sinh(0.5) ** 2)

    def test_from_mean_photons_round_trip(self):
        tmsv = TwoModeSqueezedVacuum.from_mean_photons(0.1)
        assert np.isclose(tmsv.mean_photons_per_arm, 0.1)

    def test_from_pair_probability_round_trip(self):
        for mu in (1e-4, 1e-3, 0.01, 0.1):
            tmsv = TwoModeSqueezedVacuum.from_pair_probability(mu)
            assert np.isclose(tmsv.pair_probability, mu, rtol=1e-9), mu

    def test_pair_probability_bound(self):
        with pytest.raises(PhysicsError):
            TwoModeSqueezedVacuum.from_pair_probability(0.3)

    def test_number_distribution_normalised(self):
        tmsv = TwoModeSqueezedVacuum(0.3)
        total = sum(tmsv.number_probability(n) for n in range(200))
        assert np.isclose(total, 1.0, atol=1e-10)

    def test_multi_pair_much_smaller_at_low_gain(self):
        tmsv = TwoModeSqueezedVacuum.from_pair_probability(1e-3)
        assert tmsv.multi_pair_probability < 1e-5

    def test_negative_squeezing_rejected(self):
        with pytest.raises(PhysicsError):
            TwoModeSqueezedVacuum(-0.1)

    def test_ket_normalised(self):
        tmsv = TwoModeSqueezedVacuum(0.2, cutoff=10)
        assert np.isclose(np.linalg.norm(tmsv.ket()), 1.0)

    def test_ket_truncation_guard(self):
        with pytest.raises(PhysicsError):
            TwoModeSqueezedVacuum(2.0, cutoff=3).ket()

    def test_marginal_is_thermal(self):
        tmsv = TwoModeSqueezedVacuum(0.3, cutoff=12)
        assert tmsv.marginal_matches_thermal()

    def test_unheralded_g2_thermal(self):
        assert TwoModeSqueezedVacuum(0.1).unheralded_g2() == 2.0

    def test_heralded_g2_small_at_low_gain(self):
        tmsv = TwoModeSqueezedVacuum.from_pair_probability(1e-3)
        g2 = tmsv.heralded_g2(efficiency=0.1)
        assert g2 < 0.01

    def test_heralded_g2_grows_with_mu(self):
        g2_values = [
            TwoModeSqueezedVacuum.from_pair_probability(mu).heralded_g2(0.2)
            for mu in (1e-4, 1e-3, 1e-2)
        ]
        assert g2_values[0] < g2_values[1] < g2_values[2]

    def test_heralded_g2_efficiency_bounds(self):
        with pytest.raises(PhysicsError):
            TwoModeSqueezedVacuum(0.1).heralded_g2(0.0)


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

    def test_schmidt_number_inverse_of_purity(self):
        grid = np.linspace(-2, 2, 31)
        s, i = np.meshgrid(grid, grid, indexing="ij")
        jsa = np.exp(-(s**2) - i**2 - 0.5 * s * i)
        decomposition = schmidt_decompose(jsa)
        assert np.isclose(
            decomposition.schmidt_number, 1.0 / decomposition.purity
        )

    def test_zero_jsa_rejected(self):
        with pytest.raises(PhysicsError):
            schmidt_decompose(np.zeros((4, 4)))

    def test_coefficients_validation(self):
        with pytest.raises(PhysicsError):
            SchmidtDecomposition(coefficients=np.array([1.0, 1.0]))

    def test_entropy_zero_for_single_mode(self):
        decomposition = SchmidtDecomposition(coefficients=np.array([1.0]))
        assert decomposition.entropy == 0.0
        assert decomposition.purity == 1.0

    def test_uniform_coefficients_entropy(self):
        n = 4
        coeffs = np.full(n, 1.0 / np.sqrt(n))
        decomposition = SchmidtDecomposition(coefficients=coeffs)
        assert np.isclose(decomposition.entropy, 2.0)
        assert np.isclose(decomposition.schmidt_number, 4.0)
