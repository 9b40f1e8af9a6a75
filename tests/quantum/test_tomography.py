"""Unit tests for state tomography (settings and MLE).

The counts come from the E9 driver's simulator with no analyser phase
error, the path the experiment itself runs.
"""

import numpy as np
import pytest

from repro.core.schemes import MultiPhotonScheme, TimeBinScheme
from repro.errors import TomographyError
from repro.experiments.tomography_fidelity import simulate_counts_with_phase_errors
from repro.quantum import tomography
from repro.quantum.noise import add_white_noise
from repro.quantum.qubits import bell_state, computational_ket
from repro.quantum.states import DensityMatrix
from repro.utils.rng import RandomStream


@pytest.fixture
def bell():
    return DensityMatrix.from_ket(bell_state("phi+"), [2, 2])


class TestSettings:
    def test_single_qubit_settings(self):
        assert tomography.measurement_settings(1) == ["X", "Y", "Z"]

    def test_two_qubit_count(self):
        assert len(tomography.measurement_settings(2)) == 9

    def test_four_qubit_count(self):
        assert len(tomography.measurement_settings(4)) == 81

    def test_projectors_complete(self):
        for setting in ("X", "ZZ", "XY"):
            projs = tomography.setting_projectors(setting)
            total = sum(projs)
            assert np.allclose(total, np.eye(2 ** len(setting)))

    def test_projectors_orthogonal(self):
        projs = tomography.setting_projectors("XZ")
        for i, a in enumerate(projs):
            for j, b in enumerate(projs):
                product = a @ b
                if i == j:
                    assert np.allclose(product, a)
                else:
                    assert np.allclose(product, np.zeros_like(a), atol=1e-12)

    def test_invalid_setting_rejected(self):
        with pytest.raises(TomographyError):
            tomography.setting_projectors("XI")


class TestMLE:
    def test_reconstructs_pure_bell(self, bell, rng):
        counts = simulate_counts_with_phase_errors(bell, 3000, 0.0, rng)
        result = tomography.mle_tomography(counts, 2)
        assert result.fidelity(bell) > 0.97
        assert result.converged

    def test_reconstructs_werner(self, bell, rng):
        werner = add_white_noise(bell, 0.8)
        counts = simulate_counts_with_phase_errors(werner, 5000, 0.0, rng)
        result = tomography.mle_tomography(counts, 2)
        assert result.fidelity(werner) > 0.98

    def test_single_qubit(self, rng):
        state = DensityMatrix.from_ket(computational_ket("0"))
        counts = simulate_counts_with_phase_errors(state, 2000, 0.0, rng)
        result = tomography.mle_tomography(counts, 1)
        assert result.fidelity(state) > 0.98

    def test_result_is_physical(self, bell, rng):
        counts = simulate_counts_with_phase_errors(bell, 200, 0.0, rng)
        result = tomography.mle_tomography(counts, 2)
        eigenvalues = np.linalg.eigvalsh(result.state.matrix)
        assert eigenvalues.min() >= -1e-9
        assert np.isclose(np.trace(result.state.matrix).real, 1.0)

    def test_diluted_variant_converges(self, bell, rng):
        counts = simulate_counts_with_phase_errors(bell, 1000, 0.0, rng)
        result = tomography.mle_tomography(counts, 2, dilution=0.5)
        assert result.fidelity(bell) > 0.95

    def test_empty_counts_rejected(self):
        with pytest.raises(TomographyError):
            tomography.mle_tomography({}, 2)

    def test_all_zero_counts_rejected(self):
        counts = {"ZZ": np.zeros(4, dtype=int)}
        with pytest.raises(TomographyError):
            tomography.mle_tomography(counts, 2)

    def test_wrong_count_shape_rejected(self):
        counts = {"ZZ": np.zeros(3, dtype=int)}
        with pytest.raises(TomographyError):
            tomography.mle_tomography(counts, 2)

    def test_setting_of_wrong_length_rejected(self):
        counts = {"ZZ": np.array([5, 0, 0, 5]), "X": np.array([3, 1, 2, 4])}
        with pytest.raises(TomographyError):
            tomography.mle_tomography(counts, 2)

    def test_bad_dilution_rejected(self, bell, rng):
        counts = simulate_counts_with_phase_errors(bell, 100, 0.0, rng)
        with pytest.raises(TomographyError):
            tomography.mle_tomography(counts, 2, dilution=0.0)


def _mle_per_projector(counts, num_qubits, max_iterations, dilution):
    """Frozen copy of the original RρR loop: one ``Tr(Π ρ)`` per projector
    and R accumulated projector by projector.  Returns (ρ, iterations)."""
    dim = 2**num_qubits
    projector_list, frequency_list, total_shots = [], [], 0.0
    for setting, setting_counts in counts.items():
        setting_counts = np.asarray(setting_counts, dtype=float)
        shots = setting_counts.sum()
        if shots == 0:
            continue
        total_shots += shots
        for proj, count in zip(
            tomography.setting_projectors(setting), setting_counts
        ):
            projector_list.append(proj)
            frequency_list.append(float(count))
    frequencies = np.array(frequency_list) / total_shots
    rho = np.eye(dim, dtype=complex) / dim
    previous_likelihood = -np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        probabilities = np.array(
            [max(np.real(np.trace(proj @ rho)), 1e-12) for proj in projector_list]
        )
        r_operator = np.zeros((dim, dim), dtype=complex)
        for freq, prob, proj in zip(frequencies, probabilities, projector_list):
            if freq > 0:
                r_operator += (freq / prob) * proj
        if dilution < 1.0:
            r_operator = (1.0 - dilution) * np.eye(dim) + dilution * r_operator
        candidate = r_operator @ rho @ r_operator
        candidate = 0.5 * (candidate + candidate.conj().T)
        rho = candidate / np.real(np.trace(candidate))
        log_likelihood = float(
            np.dot(frequencies[frequencies > 0],
                   np.log(probabilities[frequencies > 0]))
        )
        if abs(log_likelihood - previous_likelihood) < 1e-10:
            break
        previous_likelihood = log_likelihood
    return rho, iterations


def _mle_stacked(counts, num_qubits, max_iterations, dilution):
    """Frozen copy of the stacked RρR iteration that preceded the factored
    one: every probability from one product with the flattened 3ⁿ·2ⁿ × 4ⁿ
    projector stack, R from one contraction of it.  Returns
    (ρ, iterations)."""
    dim = 2**num_qubits
    projector_list, frequency_list, total_shots = [], [], 0.0
    for setting, setting_counts in counts.items():
        setting_counts = np.asarray(setting_counts, dtype=float)
        shots = setting_counts.sum()
        if shots == 0:
            continue
        total_shots += shots
        for proj, count in zip(
            tomography.setting_projectors(setting), setting_counts
        ):
            projector_list.append(proj)
            frequency_list.append(float(count))
    frequencies = np.array(frequency_list) / total_shots
    observed = frequencies > 0
    projectors = np.stack(projector_list)
    flat_projectors = projectors.reshape(len(projector_list), dim * dim)
    observed_projectors = projectors[observed]
    observed_frequencies = frequencies[observed]
    rho = np.eye(dim, dtype=complex) / dim
    previous_likelihood = -np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        probabilities = np.maximum(
            np.real(flat_projectors @ rho.T.reshape(dim * dim)), 1e-12
        )
        r_operator = np.tensordot(
            observed_frequencies / probabilities[observed],
            observed_projectors,
            axes=1,
        )
        if dilution < 1.0:
            r_operator = (1.0 - dilution) * np.eye(dim) + dilution * r_operator
        candidate = r_operator @ rho @ r_operator
        candidate = 0.5 * (candidate + candidate.conj().T)
        rho = candidate / np.real(np.trace(candidate))
        log_likelihood = float(
            np.dot(observed_frequencies, np.log(probabilities[observed]))
        )
        if abs(log_likelihood - previous_likelihood) < 1e-10:
            break
        previous_likelihood = log_likelihood
    return rho, iterations


def _e9_counts(seed):
    """The Bell and four-photon counts E9 reconstructs at ``seed``, full
    statistics."""
    time_bin, multi = TimeBinScheme(), MultiPhotonScheme()
    calibration = multi.calibration
    rng = RandomStream(seed, label="E9")
    bell = simulate_counts_with_phase_errors(
        time_bin.pair_state(),
        calibration.bell_tomography_shots_per_setting,
        calibration.bell_setting_phase_sigma_rad,
        rng.child("bell"),
    )
    four = simulate_counts_with_phase_errors(
        multi.four_photon_state(),
        calibration.tomography_shots_per_setting,
        calibration.setting_phase_sigma_rad,
        rng.child("four"),
    )
    return bell, four


class TestFactoredMLEMatchesStackedIteration:
    """Probabilities and R from the single-qubit factor tables take the
    stacked iteration's steps: the same iteration count on E9's own
    counts and every element of ρ within 1e-12."""

    @pytest.mark.parametrize("seed", range(6))
    def test_e9_counts(self, seed):
        bell, four = _e9_counts(seed)
        self._assert_matches(bell, 2, 300, 1.0)
        self._assert_matches(four, 4, 200, 1.0)

    def test_diluted(self):
        bell, four = _e9_counts(0)
        self._assert_matches(bell, 2, 300, 0.5)
        self._assert_matches(four, 4, 200, 0.5)

    def test_missing_and_empty_settings(self):
        _, four = _e9_counts(1)
        counts = {
            setting: values
            for index, (setting, values) in enumerate(four.items())
            if index % 3
        }
        counts["XYZX"] = np.zeros(16, dtype=int)
        self._assert_matches(counts, 4, 200, 1.0)

    @staticmethod
    def _assert_matches(counts, num_qubits, max_iterations, dilution):
        expected, iterations = _mle_stacked(
            counts, num_qubits, max_iterations, dilution
        )
        result = tomography.mle_tomography(
            counts, num_qubits, max_iterations=max_iterations, dilution=dilution
        )
        assert result.iterations == iterations
        assert np.max(np.abs(result.state.matrix - expected)) <= 1e-12


class TestStackedMLEMatchesPerProjectorLoop:
    """The factored update reorders float sums only: every element of ρ
    stays within 1e-10 of the per-projector loop."""

    @pytest.mark.parametrize("dilution", [1.0, 0.5])
    def test_two_qubits(self, bell, rng, dilution):
        counts = simulate_counts_with_phase_errors(
            add_white_noise(bell, 0.85), 400, 0.0, rng
        )
        counts["XY"] = np.zeros(4, dtype=int)  # an empty setting is skipped
        self._assert_matches(counts, 2, 300, dilution)

    @pytest.mark.parametrize("dilution", [1.0, 0.5])
    def test_four_qubits(self, bell, rng, dilution):
        pair = bell.matrix
        state = add_white_noise(DensityMatrix(np.kron(pair, pair), [2] * 4), 0.7)
        counts = simulate_counts_with_phase_errors(state, 60, 0.0, rng)
        self._assert_matches(counts, 4, 60, dilution)

    @staticmethod
    def _assert_matches(counts, num_qubits, max_iterations, dilution):
        expected, iterations = _mle_per_projector(
            counts, num_qubits, max_iterations, dilution
        )
        result = tomography.mle_tomography(
            counts, num_qubits, max_iterations=max_iterations, dilution=dilution
        )
        assert result.iterations == iterations
        assert np.max(np.abs(result.state.matrix - expected)) < 1e-10
