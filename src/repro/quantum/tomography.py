"""Quantum state tomography: measurement simulation, linear inversion, MLE.

The paper performs quantum state tomography on the time-bin Bell pairs and
on the four-photon state (reporting a fidelity of 64 % for the latter).
This module implements the full pipeline the experiment uses:

1. choose local Pauli measurement settings (3ⁿ bases for n qubits);
2. collect finite-shot outcome counts (:func:`simulate_pauli_counts` stands
   in for the coincidence logger);
3. reconstruct ρ by linear inversion (fast, possibly unphysical) or by
   iterative maximum-likelihood (RρR algorithm, always physical);
4. report fidelity against the ideal target.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import TomographyError
from repro.quantum import hilbert
from repro.quantum.measurement import sample_outcomes
from repro.quantum.operators import PAULI_BY_NAME, pauli_string
from repro.quantum.states import DensityMatrix
from repro.utils.rng import RandomStream

#: Eigenprojectors of each measurement letter, indexed [letter][outcome_bit];
#: outcome bit 0 ↔ eigenvalue +1, bit 1 ↔ eigenvalue -1.
_EIGENPROJECTORS = {
    "X": (
        np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
        np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    ),
    "Y": (
        np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
        np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex),
    ),
    "Z": (
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    ),
}


def measurement_settings(num_qubits: int) -> list[str]:
    """All 3ⁿ local Pauli bases, e.g. ["XX", "XY", ..., "ZZ"] for n=2."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    return ["".join(p) for p in itertools.product("XYZ", repeat=num_qubits)]


def setting_projectors(setting: str) -> list[np.ndarray]:
    """The 2ⁿ outcome projectors of a local Pauli basis, outcome-bit ordered.

    Outcome index ``k`` is read as a bit string (MSB = first qubit); bit 0
    means the +1 eigenvalue on that qubit.
    """
    _check_setting(setting)
    n = len(setting)
    projectors = []
    for outcome in range(2**n):
        bits = _outcome_bits(outcome, n)
        factors = [_EIGENPROJECTORS[letter][bit] for letter, bit in zip(setting, bits)]
        projectors.append(hilbert.tensor(*factors))
    return projectors


def simulate_pauli_counts(
    state: DensityMatrix,
    shots_per_setting: int,
    rng: RandomStream,
    settings: Sequence[str] | None = None,
) -> dict[str, np.ndarray]:
    """Finite-shot tomography data for ``state``.

    Returns a mapping setting → integer counts array of length 2ⁿ.  In the
    experiment "shots" are post-selected coincidence events at fixed
    analyser settings; the multinomial model is exact for that situation.
    """
    n = state.num_subsystems
    if any(d != 2 for d in state.dims):
        raise TomographyError(f"Pauli tomography needs qubits, got dims {state.dims}")
    if settings is None:
        settings = measurement_settings(n)
    counts: dict[str, np.ndarray] = {}
    for setting in settings:
        if len(setting) != n:
            raise TomographyError(
                f"setting {setting!r} has {len(setting)} letters for {n} qubits"
            )
        projectors = setting_projectors(setting)
        counts[setting] = sample_outcomes(
            state, projectors, shots_per_setting, rng.child(f"tomo/{setting}")
        )
    return counts


def pauli_expectations_from_counts(
    counts: Mapping[str, np.ndarray], num_qubits: int
) -> dict[str, float]:
    """Estimate ⟨P⟩ for every Pauli string from basis-setting counts.

    A string with identity letters is estimated from every compatible
    setting (those matching it on its support), averaging the parity
    estimates weighted by total shots.
    """
    expectations: dict[str, float] = {"I" * num_qubits: 1.0}
    strings = [
        "".join(p)
        for p in itertools.product("IXYZ", repeat=num_qubits)
        if any(letter != "I" for letter in p)
    ]
    for string in strings:
        estimates = []
        weights = []
        for setting, setting_counts in counts.items():
            if _compatible(string, setting):
                value, total = _parity_estimate(string, setting_counts, num_qubits)
                if total > 0:
                    estimates.append(value)
                    weights.append(total)
        if not estimates:
            raise TomographyError(
                f"no measurement setting is compatible with Pauli string {string!r}"
            )
        expectations[string] = float(np.average(estimates, weights=weights))
    return expectations


def linear_inversion(
    counts: Mapping[str, np.ndarray], num_qubits: int
) -> np.ndarray:
    """Direct reconstruction ρ = 2⁻ⁿ Σ_P ⟨P⟩·P.

    Fast but not guaranteed positive for finite data — returns a raw matrix.
    Feed it to :func:`project_to_physical_state` or use
    :func:`mle_tomography` when a valid state is required.
    """
    expectations = pauli_expectations_from_counts(counts, num_qubits)
    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for string, value in expectations.items():
        rho += value * pauli_string(string)
    return rho / dim


def project_to_physical_state(matrix: np.ndarray) -> DensityMatrix:
    """Nearest physical state: clip negative eigenvalues, renormalise."""
    hermitian = 0.5 * (matrix + matrix.conj().T)
    eigenvalues, vectors = np.linalg.eigh(hermitian)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    total = eigenvalues.sum()
    if total <= 0:
        raise TomographyError("linear inversion produced a zero state")
    rho = (vectors * (eigenvalues / total)) @ vectors.conj().T
    n = int(round(math.log2(rho.shape[0])))
    return DensityMatrix(rho, [2] * n)


@dataclasses.dataclass(frozen=True)
class TomographyResult:
    """Outcome of an MLE reconstruction."""

    state: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool

    def fidelity(self, target: DensityMatrix | np.ndarray) -> float:
        """Fidelity of the reconstructed state against a target."""
        return self.state.fidelity(target)


def mle_tomography(
    counts: Mapping[str, np.ndarray],
    num_qubits: int,
    max_iterations: int = 500,
    tolerance: float = 1e-10,
    dilution: float = 1.0,
) -> TomographyResult:
    """Iterative maximum-likelihood tomography (RρR algorithm).

    Iterates ρ ← N[R ρ R] with R = Σⱼ (fⱼ/pⱼ) Πⱼ, where fⱼ are observed
    frequencies and pⱼ = Tr(ρ Πⱼ).  ``dilution`` < 1 applies the diluted
    variant R_ε = (1-ε)I + εR which is guaranteed monotone; the undiluted
    update is faster and almost always monotone in practice.

    The fixed point maximises the multinomial likelihood over physical
    states, so the result is always a valid density matrix — this is why
    the paper's reported fidelities come from MLE rather than inversion.
    """
    dim = 2**num_qubits
    if not counts:
        raise TomographyError("no measurement data supplied")
    if not 0 < dilution <= 1:
        raise TomographyError(f"dilution must be in (0, 1], got {dilution}")

    projector_list: list[np.ndarray] = []
    frequency_list: list[float] = []
    total_shots = 0.0
    for setting, setting_counts in counts.items():
        setting_counts = np.asarray(setting_counts, dtype=float)
        if setting_counts.shape != (2**num_qubits,):
            raise TomographyError(
                f"setting {setting!r} has {setting_counts.shape} counts, "
                f"expected ({2**num_qubits},)"
            )
        projs = setting_projectors(setting)
        shots = setting_counts.sum()
        if shots == 0:
            continue
        total_shots += shots
        for proj, count in zip(projs, setting_counts):
            projector_list.append(proj)
            frequency_list.append(float(count))
    if total_shots == 0:
        raise TomographyError("all settings have zero counts")
    frequencies = np.array(frequency_list) / total_shots
    observed = frequencies > 0
    # Tr(Π ρ) = Σ_ab Π_ab ρ_ba: one matrix-vector product against the
    # flattened projector stack gives every probability at once.
    projectors = np.stack(projector_list)
    flat_projectors = projectors.reshape(len(projector_list), dim * dim)
    observed_projectors = projectors[observed]
    observed_frequencies = frequencies[observed]

    rho = np.eye(dim, dtype=complex) / dim
    previous_likelihood = -np.inf
    converged = False
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
        trace = np.real(np.trace(candidate))
        if trace <= 0:
            raise TomographyError("RρR update collapsed to zero trace")
        rho = candidate / trace
        log_likelihood = float(
            np.dot(observed_frequencies, np.log(probabilities[observed]))
        )
        if abs(log_likelihood - previous_likelihood) < tolerance:
            converged = True
            break
        previous_likelihood = log_likelihood

    state = DensityMatrix(rho, [2] * num_qubits)
    return TomographyResult(
        state=state,
        iterations=iterations,
        log_likelihood=previous_likelihood,
        converged=converged,
    )


def _check_setting(setting: str) -> None:
    if not setting or any(letter not in "XYZ" for letter in setting):
        raise TomographyError(
            f"setting must be a non-empty string over X/Y/Z, got {setting!r}"
        )


def _outcome_bits(outcome: int, num_qubits: int) -> list[int]:
    return [(outcome >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]


def _compatible(pauli: str, setting: str) -> bool:
    """True if ``setting`` measures ``pauli`` (matches it on its support)."""
    return all(p == "I" or p == s for p, s in zip(pauli, setting))


def _parity_estimate(
    pauli: str, counts: np.ndarray, num_qubits: int
) -> tuple[float, float]:
    """(⟨P⟩ estimate, total shots) from one setting's outcome counts."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total == 0:
        return 0.0, 0.0
    value = 0.0
    for outcome, count in enumerate(counts):
        if count == 0:
            continue
        bits = _outcome_bits(outcome, num_qubits)
        parity = 1.0
        for letter, bit in zip(pauli, bits):
            if letter != "I" and bit == 1:
                parity = -parity
        value += parity * count
    return value / total, total


# PAULI_BY_NAME is re-exported for callers that build custom observables
# from tomography settings.
__all__ = [
    "PAULI_BY_NAME",
    "TomographyResult",
    "linear_inversion",
    "measurement_settings",
    "mle_tomography",
    "pauli_expectations_from_counts",
    "project_to_physical_state",
    "setting_projectors",
    "simulate_pauli_counts",
]
