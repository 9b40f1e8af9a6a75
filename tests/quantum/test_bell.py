"""Unit tests for CHSH machinery."""

import math

import numpy as np
import pytest

from repro.errors import DimensionMismatchError
from repro.quantum import bell as bell_mod
from repro.quantum.noise import add_white_noise
from repro.quantum.qubits import bell_state, computational_ket
from repro.quantum.states import DensityMatrix


@pytest.fixture
def phi_plus():
    return DensityMatrix.from_ket(bell_state("phi+"), [2, 2])


class TestCorrelation:
    def test_phi_plus_equatorial_correlation(self, phi_plus):
        # E(alpha, beta) = cos(alpha + beta) for phi+.
        for alpha, beta in [(0.0, 0.0), (0.3, 0.5), (1.0, -0.4)]:
            expected = math.cos(alpha + beta)
            assert np.isclose(
                bell_mod.correlation(phi_plus, alpha, beta), expected
            )

    def test_requires_two_qubits(self):
        with pytest.raises(DimensionMismatchError):
            bell_mod.correlation(DensityMatrix.maximally_mixed([2]), 0, 0)


class TestCHSHValue:
    def test_ideal_bell_saturates_tsirelson(self, phi_plus):
        s = bell_mod.chsh_value(phi_plus)
        assert np.isclose(s, bell_mod.TSIRELSON_BOUND)

    def test_werner_scales_linearly(self, phi_plus):
        for v in (0.5, 0.707, 0.83, 1.0):
            s = bell_mod.chsh_value(add_white_noise(phi_plus, v))
            assert np.isclose(s, bell_mod.TSIRELSON_BOUND * v, atol=1e-9)

    def test_product_state_no_violation(self):
        product = DensityMatrix.from_ket(computational_ket("00"), [2, 2])
        s = bell_mod.chsh_value(product)
        assert abs(s) <= bell_mod.CLASSICAL_BOUND + 1e-9


class TestHorodecki:
    def test_bell_maximum(self, phi_plus):
        assert np.isclose(
            bell_mod.horodecki_chsh_maximum(phi_plus), bell_mod.TSIRELSON_BOUND
        )

    def test_matches_optimal_settings_value(self, phi_plus):
        werner = add_white_noise(phi_plus, 0.83)
        s_settings = bell_mod.chsh_value(werner)
        s_max = bell_mod.horodecki_chsh_maximum(werner)
        assert s_settings <= s_max + 1e-9
        assert np.isclose(s_settings, s_max, atol=1e-9)

    def test_separable_state_below_two(self):
        product = DensityMatrix.from_ket(computational_ket("01"), [2, 2])
        assert bell_mod.horodecki_chsh_maximum(product) <= 2.0 + 1e-9

    def test_all_bell_states_saturate(self):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            state = DensityMatrix.from_ket(bell_state(kind), [2, 2])
            assert np.isclose(
                bell_mod.horodecki_chsh_maximum(state), bell_mod.TSIRELSON_BOUND
            )


class TestVisibilityRelation:
    def test_paper_value(self):
        # The paper's 83% visibility implies S ~ 2.35 > 2.
        s = bell_mod.visibility_to_chsh(0.83)
        assert s > bell_mod.CLASSICAL_BOUND
        assert np.isclose(s, 2.348, atol=2e-3)

    def test_threshold_visibility(self):
        v = bell_mod.VISIBILITY_VIOLATION_THRESHOLD
        assert np.isclose(bell_mod.visibility_to_chsh(v), 2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bell_mod.visibility_to_chsh(1.2)
