"""Property-based tests of quantum-substrate invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.quantum import hilbert
from repro.quantum.bell import TSIRELSON_BOUND, chsh_value, horodecki_chsh_maximum
from repro.quantum.entanglement import concurrence, negativity
from repro.quantum.noise import add_white_noise
from repro.quantum.schmidt import schmidt_decompose
from repro.quantum.states import DensityMatrix

from tests.property.strategies import density_matrices, kets, unitaries_2x2

SETTINGS = settings(max_examples=40, deadline=None)


class TestStateInvariants:
    @SETTINGS
    @given(kets(4))
    def test_pure_states_have_unit_purity(self, ket):
        state = DensityMatrix.from_ket(ket, [2, 2])
        assert np.isclose(state.purity(), 1.0, atol=1e-9)

    @SETTINGS
    @given(density_matrices((2, 2), rank=3))
    def test_trace_one_and_positive(self, state):
        assert np.isclose(np.trace(state.matrix).real, 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(state.matrix).min() >= -1e-9

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_purity_bounds(self, state):
        assert 0.25 - 1e-9 <= state.purity() <= 1.0 + 1e-9

    @SETTINGS
    @given(density_matrices((2, 2), rank=2), density_matrices((2, 2), rank=2))
    def test_fidelity_symmetric_and_bounded(self, a, b):
        # Tolerances are numerical: rank-deficient mixtures push the
        # sqrt-eigendecomposition to its accuracy limit (~1e-6).
        f_ab = a.fidelity(b)
        f_ba = b.fidelity(a)
        assert np.isclose(f_ab, f_ba, atol=5e-6)
        assert -1e-9 <= f_ab <= 1.0 + 1e-6

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_self_fidelity_is_one(self, state):
        assert np.isclose(state.fidelity(state), 1.0, atol=1e-7)

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_partial_trace_preserves_trace(self, state):
        reduced = state.partial_trace([0])
        assert np.isclose(np.trace(reduced.matrix).real, 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(reduced.matrix).min() >= -1e-9

    @SETTINGS
    @given(kets(4))
    def test_entropy_equal_for_both_marginals(self, ket):
        # For pure bipartite states both marginals have the same spectrum
        # (the squared Schmidt coefficients), hence the same entropy.
        state = DensityMatrix.from_ket(ket, [2, 2])
        spectrum_a = np.linalg.eigvalsh(state.partial_trace([0]).matrix)
        spectrum_b = np.linalg.eigvalsh(state.partial_trace([1]).matrix)
        assert np.allclose(spectrum_a, spectrum_b, atol=1e-6)


class TestEntanglementInvariants:
    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_concurrence_bounds(self, state):
        c = concurrence(state)
        assert -1e-9 <= c <= 1.0 + 1e-9

    @SETTINGS
    @given(density_matrices((2, 2), rank=2), unitaries_2x2(), unitaries_2x2())
    def test_concurrence_local_unitary_invariant(self, state, u1, u2):
        # atol reflects the numerics of the non-Hermitian eigenvalue
        # problem near zero concurrence, not a physical deviation.
        c_before = concurrence(state)
        local = hilbert.tensor(u1, u2)
        evolved = DensityMatrix(local @ state.matrix @ local.conj().T, state.dims)
        c_after = concurrence(evolved)
        assert np.isclose(c_before, c_after, atol=1e-5)

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_ppt_iff_separable_for_two_qubits(self, state):
        # For 2x2 systems PPT <=> separable <=> zero concurrence.  Both
        # certifiers carry ~1e-6 numerical noise at the boundary (the
        # concurrence square-roots near-zero eigenvalues), so each
        # direction is asserted with a margin rather than judging
        # states inside the noise band.
        c = concurrence(state)
        if c > 1e-5:  # clearly entangled: the partial transpose is NPT
            assert negativity(state) > 1e-9
        if negativity(state) > 1e-5:  # clearly NPT: concurrence nonzero
            assert c > 1e-7

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_negativity_nonnegative(self, state):
        assert negativity(state) >= -1e-9

    @SETTINGS
    @given(density_matrices((2, 2), rank=2))
    def test_horodecki_bounds_chsh(self, state):
        s_max = horodecki_chsh_maximum(state)
        assert s_max <= TSIRELSON_BOUND + 1e-7
        assert chsh_value(state) <= s_max + 1e-7


class TestChannelInvariants:
    @SETTINGS
    @given(
        density_matrices((2, 2), rank=2),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_white_noise_preserves_physicality(self, state, visibility):
        noisy = add_white_noise(state, visibility)
        assert np.isclose(np.trace(noisy.matrix).real, 1.0, atol=1e-9)
        assert noisy.purity() <= state.purity() + 1e-9


class TestSchmidtInvariants:
    @SETTINGS
    @given(st.integers(min_value=2, max_value=12), st.randoms())
    def test_purity_and_schmidt_number_bounds(self, size, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        jsa = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        decomposition = schmidt_decompose(jsa)
        # The upper bound is the Schmidt number K = 1/P >= 1.
        assert 1.0 / size - 1e-9 <= decomposition.purity <= 1.0 + 1e-9

    @SETTINGS
    @given(st.integers(min_value=2, max_value=8), st.randoms())
    def test_purity_invariant_under_one_sided_phase(self, size, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        jsa = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        phase = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size)))
        before = schmidt_decompose(jsa).purity
        after = schmidt_decompose(phase @ jsa).purity
        assert np.isclose(before, after, atol=1e-9)
