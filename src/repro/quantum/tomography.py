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


#: The six single-qubit eigenprojectors, flattened: row ``2·letter + bit``
#: (letters X, Y, Z) holds ``Π[r, c]`` at column ``2·r + c``.
_PROJECTOR_TABLE = np.array(
    [_EIGENPROJECTORS[letter][bit].reshape(4) for letter in "XYZ" for bit in (0, 1)]
)


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

    Every projector is a product Π_A ⊗ Π_B over the first and the last
    half of the qubits, each factor a product of single-qubit
    eigenprojectors.  With ``K`` the table of those factors (one row per
    letter and bit of every qubit of a half, one column per matrix
    element), all probabilities are p = K_A·T·K_Bᵀ, where T holds the
    elements of ρ regrouped by half, and R = K_Aᵀ·W·K_B with W = f/p.
    """
    dim = 2**num_qubits
    if not counts:
        raise TomographyError("no measurement data supplied")
    if not 0 < dilution <= 1:
        raise TomographyError(f"dilution must be in (0, 1], got {dilution}")

    half_a = (num_qubits + 1) // 2
    place_values = 6 ** np.arange(num_qubits - 1, -1, -1)
    # outcome_bits[k, q]: bit of qubit q in outcome k (MSB = first qubit).
    outcome_bits = (np.arange(dim)[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1
    rows_list: list[np.ndarray] = []
    count_list: list[np.ndarray] = []
    total_shots = 0.0
    for setting, setting_counts in counts.items():
        setting_counts = np.asarray(setting_counts, dtype=float)
        if setting_counts.shape != (dim,):
            raise TomographyError(
                f"setting {setting!r} has {setting_counts.shape} counts, "
                f"expected ({dim},)"
            )
        _check_setting(setting)
        if len(setting) != num_qubits:
            raise TomographyError(
                f"setting {setting!r} does not measure {num_qubits} qubits"
            )
        shots = setting_counts.sum()
        if shots == 0:
            continue
        total_shots += shots
        letters = np.array(["XYZ".index(letter) for letter in setting])
        rows_list.append(2 * letters + outcome_bits)
        count_list.append(setting_counts)
    if total_shots == 0:
        raise TomographyError("all settings have zero counts")
    # Each (setting, outcome) is one (row of K_A, row of K_B) cell.
    rows = np.concatenate(rows_list)
    cells_a = rows[:, :half_a] @ place_values[num_qubits - half_a :]
    cells_b = rows[:, half_a:] @ place_values[half_a:]
    frequencies = np.concatenate(count_list) / total_shots
    observed = frequencies > 0
    observed_a = cells_a[observed]
    observed_b = cells_b[observed]
    observed_frequencies = frequencies[observed]

    table_a = _factor_table(half_a)
    table_b = _factor_table(num_qubits - half_a)
    # Axis order (r₀, c₀, r₁, c₁, ...) groups each qubit's row and column
    # index, matching the columns of the factor tables.
    paired = [axis for q in range(num_qubits) for axis in (q, num_qubits + q)]
    unpaired = np.argsort(paired)
    split = (4**half_a, 4 ** (num_qubits - half_a))
    weights_matrix = np.zeros((table_a.shape[0], table_b.shape[0]))

    rho = np.eye(dim, dtype=complex) / dim
    previous_likelihood = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Tr(Π ρ) = Σ_rc Π[r, c] ρᵀ[r, c].
        elements = rho.T.reshape([2] * (2 * num_qubits)).transpose(paired)
        probabilities = np.real(table_a @ elements.reshape(split) @ table_b.T)
        observed_probabilities = np.maximum(
            probabilities[observed_a, observed_b], 1e-12
        )
        weights_matrix[observed_a, observed_b] = (
            observed_frequencies / observed_probabilities
        )
        r_elements = table_a.T @ weights_matrix @ table_b
        r_operator = (
            r_elements.reshape([2] * (2 * num_qubits))
            .transpose(unpaired)
            .reshape(dim, dim)
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
            np.dot(observed_frequencies, np.log(observed_probabilities))
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


def _factor_table(num_qubits: int) -> np.ndarray:
    """Products of single-qubit eigenprojectors on ``num_qubits`` qubits:
    6ⁿ rows (letter and bit per qubit, first qubit most significant) by
    4ⁿ columns ((r, c) per qubit, first qubit most significant)."""
    table = np.ones((1, 1), dtype=complex)
    for _ in range(num_qubits):
        table = np.kron(table, _PROJECTOR_TABLE)
    return table


def _check_setting(setting: str) -> None:
    if not setting or any(letter not in "XYZ" for letter in setting):
        raise TomographyError(
            f"setting must be a non-empty string over X/Y/Z, got {setting!r}"
        )


def _outcome_bits(outcome: int, num_qubits: int) -> list[int]:
    return [(outcome >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
