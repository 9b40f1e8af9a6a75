"""Projective measurement and finite-shot Born-rule sampling."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, PhysicsError
from repro.quantum.states import DensityMatrix
from repro.utils.rng import RandomStream


def born_probabilities(
    state: DensityMatrix, projectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Probabilities Tr(Πᵢ ρ) for a complete (or sub-complete) projector set.

    Validates that the projectors sum to at most identity (POVM condition);
    if they sum to strictly less, the deficit is reported as an implicit
    "no outcome" probability appended by the caller if desired.
    """
    if not projectors:
        raise ValueError("projectors must be non-empty")
    probabilities = np.empty(len(projectors))
    total = np.zeros_like(state.matrix)
    for i, proj in enumerate(projectors):
        proj = np.asarray(proj, dtype=complex)
        if proj.shape != state.matrix.shape:
            raise DimensionMismatchError(
                f"projector {i} has shape {proj.shape}, state needs "
                f"{state.matrix.shape}"
            )
        probabilities[i] = state.probability(proj)
        total = total + proj
    eigenvalues = np.linalg.eigvalsh(total)
    if eigenvalues.max() > 1.0 + 1e-6:
        raise PhysicsError(
            "projector set exceeds identity (max eigenvalue "
            f"{eigenvalues.max():.6f}); not a valid POVM"
        )
    # Normalise away rounding noise when the set is complete.
    s = probabilities.sum()
    if abs(s - 1.0) < 1e-6:
        probabilities = probabilities / s
    return probabilities


def sample_outcomes(
    state: DensityMatrix,
    projectors: Sequence[np.ndarray],
    shots: int,
    rng: RandomStream,
) -> np.ndarray:
    """Multinomial counts of projective outcomes over ``shots`` repetitions.

    The projector set must be complete (probabilities sum to 1 within 1e-6).
    Returns an integer array aligned with ``projectors``.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    probabilities = born_probabilities(state, projectors)
    total = probabilities.sum()
    if abs(total - 1.0) > 1e-6:
        raise PhysicsError(
            f"projector set is incomplete (probabilities sum to {total:.6f}); "
            "sampling requires a complete set"
        )
    return rng.multinomial(shots, probabilities)
