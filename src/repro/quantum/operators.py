"""Qubit operator algebra: Paulis and measurement bases."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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
