"""Quantum state tomography: Pauli measurement settings and MLE.

The paper performs quantum state tomography on the time-bin Bell pairs and
on the four-photon state (reporting a fidelity of 64 % for the latter).
This module implements the reconstruction the experiment uses:

1. choose local Pauli measurement settings (3ⁿ bases for n qubits);
2. reconstruct ρ from finite-shot outcome counts by iterative
   maximum-likelihood (RρR algorithm, always physical);
3. report fidelity against the ideal target.

The E9 driver simulates the counts, standing in for the coincidence
logger.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Mapping

import numpy as np

from repro.errors import TomographyError
from repro.quantum import hilbert
from repro.quantum.states import DensityMatrix

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
