"""Density matrices with validation and the standard state functionals."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import DimensionMismatchError, StateValidationError
from repro.quantum import hilbert

class DensityMatrix:
    """A validated density operator, optionally with subsystem structure.

    Parameters
    ----------
    matrix:
        Square complex matrix; validated to be Hermitian, unit trace and
        positive semidefinite.
    dims:
        Subsystem dimensions; defaults to a single system of full size.
    """

    def __init__(self, matrix: np.ndarray, dims: Sequence[int] | None = None) -> None:
        matrix = hilbert.check_square(matrix, "density matrix")
        if dims is None:
            dims = [matrix.shape[0]]
        dims = list(int(d) for d in dims)
        hilbert.check_dims_match(matrix, dims)
        _validate_density(matrix)
        # Clip tiny negative eigenvalues from floating-point noise so chained
        # operations stay valid.
        self._matrix = _project_to_physical(matrix)
        self._dims = dims

    @property
    def matrix(self) -> np.ndarray:
        """The density operator as a (copy-safe, read-only) numpy array."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def dims(self) -> tuple[int, ...]:
        """Subsystem dimensions."""
        return tuple(self._dims)

    @property
    def dimension(self) -> int:
        """Total Hilbert-space dimension."""
        return self._matrix.shape[0]

    @property
    def num_subsystems(self) -> int:
        """Number of tensor factors."""
        return len(self._dims)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_ket(
        cls, ket: np.ndarray, dims: Sequence[int] | None = None
    ) -> "DensityMatrix":
        """|ψ⟩⟨ψ| from a ket; the ket is normalised first."""
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise StateValidationError("cannot build a state from the zero vector")
        ket = ket / norm
        return cls(np.outer(ket, ket.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int]) -> "DensityMatrix":
        """I/d on the given subsystem structure."""
        d = hilbert.total_dimension(dims)
        return cls(np.eye(d, dtype=complex) / d, dims)

    # ------------------------------------------------------------------
    # Functionals
    # ------------------------------------------------------------------
    def purity(self) -> float:
        """Tr ρ² ∈ [1/d, 1]."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def fidelity(self, other: "DensityMatrix | np.ndarray") -> float:
        """Uhlmann fidelity F(ρ, σ) = (Tr√(√ρ σ √ρ))².

        Accepts another :class:`DensityMatrix`, a raw density matrix, or a
        ket (1-D array), in which case the cheaper pure-state formula
        F = ⟨ψ|ρ|ψ⟩ is used.
        """
        if isinstance(other, DensityMatrix):
            sigma = other._matrix
        else:
            other = np.asarray(other, dtype=complex)
            if other.ndim == 1:
                ket = other / np.linalg.norm(other)
                return float(np.real(ket.conj() @ self._matrix @ ket))
            sigma = other
        if sigma.shape != self._matrix.shape:
            raise DimensionMismatchError(
                f"fidelity between dims {self._matrix.shape} and {sigma.shape}"
            )
        sqrt_rho = _matrix_sqrt(self._matrix)
        inner = sqrt_rho @ sigma @ sqrt_rho
        eigenvalues = np.linalg.eigvalsh(inner)
        eigenvalues = np.clip(eigenvalues.real, 0.0, None)
        return float(np.sum(np.sqrt(eigenvalues)) ** 2)

    def expectation(self, observable: np.ndarray) -> float:
        """⟨O⟩ = Re Tr(O ρ) for a Hermitian observable."""
        observable = hilbert.check_square(observable, "observable")
        if observable.shape != self._matrix.shape:
            raise DimensionMismatchError(
                f"observable shape {observable.shape} does not match state "
                f"dimension {self._matrix.shape}"
            )
        return float(np.real(np.trace(observable @ self._matrix)))

    def probability(self, projector: np.ndarray) -> float:
        """Born probability Tr(Π ρ), clipped into [0, 1]."""
        value = self.expectation(projector)
        return float(min(max(value, 0.0), 1.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dims={self.dims}, purity={self.purity():.4f})"


def _validate_density(matrix: np.ndarray) -> None:
    trace = np.trace(matrix)
    if abs(trace - 1.0) > 1e-6:
        raise StateValidationError(f"trace must be 1, got {trace:.8f}")
    if not np.allclose(matrix, matrix.conj().T, atol=1e-8):
        raise StateValidationError("density matrix must be Hermitian")
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.min() < -1e-7:
        raise StateValidationError(
            f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
        )


def _project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Clip sub-tolerance negative eigenvalues and renormalise the trace."""
    hermitian = 0.5 * (matrix + matrix.conj().T)
    eigenvalues, vectors = np.linalg.eigh(hermitian)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    total = eigenvalues.sum()
    if total <= 0:
        raise StateValidationError("state collapsed to zero under projection")
    eigenvalues = eigenvalues / total
    return (vectors * eigenvalues) @ vectors.conj().T


def _matrix_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition."""
    eigenvalues, vectors = np.linalg.eigh(matrix)
    eigenvalues = np.clip(eigenvalues.real, 0.0, None)
    return (vectors * np.sqrt(eigenvalues)) @ vectors.conj().T
