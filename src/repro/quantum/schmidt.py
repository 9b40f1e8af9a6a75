"""Schmidt decomposition of joint spectral amplitudes.

The purity of a *heralded* single photon is set by the spectral
correlations between signal and idler: a separable joint spectral amplitude
(single Schmidt mode) gives a pure heralded photon.  Section II's claim of
"pure heralded single photons" rests on the ring's Lorentzian resonances
filtering the biphoton down to (nearly) one Schmidt mode.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PhysicsError


@dataclasses.dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a discretised joint spectral amplitude."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if np.any(coeffs < -1e-12):
            raise PhysicsError("Schmidt coefficients must be non-negative")
        total = float(np.sum(coeffs**2))
        if abs(total - 1.0) > 1e-6:
            raise PhysicsError(
                f"Schmidt coefficients must be normalised (Σλ²=1), got {total:.6f}"
            )

    @property
    def purity(self) -> float:
        """Purity of the heralded photon: P = Σ λⁱ⁴ ∈ (0, 1]."""
        coeffs = np.asarray(self.coefficients, dtype=float)
        return float(np.sum(coeffs**4))


def schmidt_decompose(jsa: np.ndarray) -> SchmidtDecomposition:
    """Decompose a discretised JSA matrix F(ω_s, ω_i) via SVD.

    The JSA need not be normalised; singular values are rescaled so that
    Σλ² = 1.
    """
    jsa = np.asarray(jsa, dtype=complex)
    if jsa.ndim != 2 or jsa.size == 0:
        raise ValueError("JSA must be a non-empty 2-D array")
    singular_values = np.linalg.svd(jsa, compute_uv=False)
    norm = np.linalg.norm(singular_values)
    if norm == 0:
        raise PhysicsError("JSA is identically zero")
    return SchmidtDecomposition(coefficients=singular_values / norm)
