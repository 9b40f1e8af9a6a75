"""Entanglement measures: concurrence and negativity."""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError
from repro.quantum import hilbert
from repro.quantum.operators import PAULI_Y
from repro.quantum.states import DensityMatrix


def concurrence(state: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    C = max(0, λ₁ - λ₂ - λ₃ - λ₄) where λᵢ are the square roots of the
    eigenvalues of ρ·(σy⊗σy)ρ*(σy⊗σy) in decreasing order.
    """
    if state.dims != (2, 2):
        raise DimensionMismatchError(
            f"concurrence is defined for two qubits, got dims {state.dims}"
        )
    rho = state.matrix
    flip = hilbert.tensor(PAULI_Y, PAULI_Y)
    rho_tilde = flip @ rho.conj() @ flip
    product = rho @ rho_tilde
    eigenvalues = np.linalg.eigvals(product)
    # The product is similar to a PSD matrix; tiny imaginary/negative parts
    # are numerical noise.
    roots = np.sqrt(np.clip(eigenvalues.real, 0.0, None))
    roots.sort()
    value = roots[-1] - roots[-2] - roots[-3] - roots[-4]
    return float(max(0.0, value))


def partial_transpose(state: DensityMatrix, subsystem: int) -> np.ndarray:
    """Partial transpose of ρ on one subsystem (returns a raw matrix —
    generally not a valid state, which is the point of the PPT test)."""
    dims = list(state.dims)
    if not 0 <= subsystem < len(dims):
        raise ValueError(f"subsystem {subsystem} outside [0, {len(dims)})")
    n = len(dims)
    reshaped = state.matrix.reshape(dims + dims)
    axes = list(range(2 * n))
    axes[subsystem], axes[n + subsystem] = axes[n + subsystem], axes[subsystem]
    transposed = np.transpose(reshaped, axes)
    total = state.dimension
    return transposed.reshape(total, total)


def negativity(state: DensityMatrix, subsystem: int = 0) -> float:
    """N(ρ) = (‖ρ^{T_A}‖₁ - 1)/2; zero iff PPT."""
    pt = partial_transpose(state, subsystem)
    eigenvalues = np.linalg.eigvalsh(pt)
    return float(np.sum(np.abs(eigenvalues)) - 1.0) / 2.0


def log_negativity(state: DensityMatrix, subsystem: int = 0) -> float:
    """E_N = log₂ ‖ρ^{T_A}‖₁."""
    return float(np.log2(2.0 * negativity(state, subsystem) + 1.0))
