"""Qubit operator algebra: Paulis, rotations, multi-qubit embeddings."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DimensionMismatchError
from repro.quantum import hilbert

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Letter → matrix lookup used by tomography and benchmark code.
PAULI_BY_NAME = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of Paulis from a label like ``"XZYI"``."""
    if not label:
        raise ValueError("pauli label must be non-empty")
    factors = []
    for letter in label.upper():
        if letter not in PAULI_BY_NAME:
            raise ValueError(f"unknown Pauli letter {letter!r} in {label!r}")
        factors.append(PAULI_BY_NAME[letter])
    return hilbert.tensor(*factors)


def bloch_vector_operator(direction: Sequence[float]) -> np.ndarray:
    """n·σ for a unit (or to-be-normalised) Bloch direction ``n``."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (3,):
        raise ValueError(f"direction must have 3 components, got {direction.shape}")
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    nx, ny, nz = direction / norm
    return nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z


def qubit_rotation(axis: Sequence[float], angle: float) -> np.ndarray:
    """Rotation exp(-i·angle/2 · n·σ) about a Bloch axis."""
    n_sigma = bloch_vector_operator(axis)
    return (
        np.cos(angle / 2.0) * PAULI_I - 1j * np.sin(angle / 2.0) * n_sigma
    )


def embed(
    operator: np.ndarray, target: int, num_qubits: int
) -> np.ndarray:
    """Embed a single-qubit operator on qubit ``target`` of ``num_qubits``."""
    operator = hilbert.check_square(operator, "operator")
    if operator.shape != (2, 2):
        raise DimensionMismatchError(
            f"embed expects a single-qubit operator, got shape {operator.shape}"
        )
    if not 0 <= target < num_qubits:
        raise ValueError(f"target {target} outside [0, {num_qubits})")
    factors = [PAULI_I] * num_qubits
    factors[target] = operator
    return hilbert.tensor(*factors)


def expectation(state_matrix: np.ndarray, observable: np.ndarray) -> float:
    """Re Tr(O ρ) for raw arrays (see DensityMatrix.expectation for states)."""
    state_matrix = hilbert.check_square(state_matrix, "state")
    observable = hilbert.check_square(observable, "observable")
    if state_matrix.shape != observable.shape:
        raise DimensionMismatchError(
            f"state {state_matrix.shape} and observable {observable.shape} differ"
        )
    return float(np.real(np.trace(observable @ state_matrix)))


def projector(ket: np.ndarray) -> np.ndarray:
    """|ψ⟩⟨ψ| from a ket, normalised."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    norm = np.linalg.norm(ket)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    ket = ket / norm
    return np.outer(ket, ket.conj())


def measurement_basis(direction: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-projectors (+1, -1) of n·σ for a Bloch direction."""
    operator = bloch_vector_operator(direction)
    _, vectors = np.linalg.eigh(operator)
    # eigh returns ascending eigenvalue order: column 1 is the +1 eigenvector.
    return projector(vectors[:, 1]), projector(vectors[:, 0])
