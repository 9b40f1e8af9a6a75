"""CHSH (Bell) inequality machinery.

The paper certifies time-bin entanglement by violating the
Clauser-Horne-Shimony-Holt inequality |S| ≤ 2.  Analysis interferometer
phases α map onto qubit measurements in the equatorial Bloch plane,
cos(α)·σx + sin(α)·σy, so CHSH settings are simply four phases.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import DimensionMismatchError
from repro.quantum import hilbert
from repro.quantum.operators import PAULI_X, PAULI_Y, PAULI_Z, bloch_vector_operator
from repro.quantum.states import DensityMatrix

#: The classical (local hidden variable) bound on |S|.
CLASSICAL_BOUND = 2.0

#: The quantum (Tsirelson) bound on |S|.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclasses.dataclass(frozen=True)
class CHSHSettings:
    """Four analyser phases (radians): two for Alice, two for Bob."""

    alice: tuple[float, float]
    bob: tuple[float, float]

    @classmethod
    def optimal_for_phi_plus(cls) -> "CHSHSettings":
        """Settings that reach S = 2√2 on (|00⟩+|11⟩)/√2.

        For Φ⁺ the equatorial correlation is E(α, β) = cos(α + β).  With
        S = E(a₁,b₁) + E(a₁,b₂) + E(a₂,b₁) - E(a₂,b₂), the choice
        a ∈ {0, π/2}, b ∈ {-π/4, +π/4} gives all four cosines magnitude
        1/√2 with the signs aligned, saturating Tsirelson's bound.
        """
        return cls(alice=(0.0, math.pi / 2.0), bob=(-math.pi / 4.0, math.pi / 4.0))


def equatorial_operator(phase: float) -> np.ndarray:
    """cos(φ)·σx + sin(φ)·σy — the observable a phase-φ analyser measures."""
    return bloch_vector_operator([math.cos(phase), math.sin(phase), 0.0])


def correlation(state: DensityMatrix, alice_phase: float, bob_phase: float) -> float:
    """E(α, β) = ⟨A(α) ⊗ B(β)⟩ for equatorial analysers."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(
            f"CHSH correlation needs a two-qubit state, got dims {state.dims}"
        )
    observable = hilbert.tensor(
        equatorial_operator(alice_phase), equatorial_operator(bob_phase)
    )
    return state.expectation(observable)


def chsh_value(state: DensityMatrix, settings: CHSHSettings | None = None) -> float:
    """S = E(a₁,b₁) + E(a₁,b₂) + E(a₂,b₁) - E(a₂,b₂)."""
    if settings is None:
        settings = CHSHSettings.optimal_for_phi_plus()
    a1, a2 = settings.alice
    b1, b2 = settings.bob
    return (
        correlation(state, a1, b1)
        + correlation(state, a1, b2)
        + correlation(state, a2, b1)
        - correlation(state, a2, b2)
    )


def correlation_matrix(state: DensityMatrix) -> np.ndarray:
    """T_ij = Tr(ρ · σᵢ ⊗ σⱼ) for i, j ∈ {x, y, z}."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(
            f"correlation matrix needs a two-qubit state, got dims {state.dims}"
        )
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = state.expectation(hilbert.tensor(si, sj))
    return t


def horodecki_chsh_maximum(state: DensityMatrix) -> float:
    """Maximum CHSH value over all settings (Horodecki criterion).

    S_max = 2·√(t₁² + t₂²) where t₁ ≥ t₂ are the two largest singular
    values of the correlation matrix T.
    """
    t = correlation_matrix(state)
    singular_values = np.linalg.svd(t, compute_uv=False)
    return float(2.0 * math.sqrt(singular_values[0] ** 2 + singular_values[1] ** 2))


def visibility_to_chsh(visibility: float) -> float:
    """S achieved by a Werner state of fringe visibility V: S = 2√2·V.

    This is the relation the paper uses implicitly: a raw two-photon
    visibility of 83 % maps to S ≈ 2.35 > 2, violating CHSH; the violation
    threshold is V > 1/√2 ≈ 70.7 %.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return TSIRELSON_BOUND * visibility


#: Minimum Werner-state visibility that still violates CHSH.
VISIBILITY_VIOLATION_THRESHOLD = 1.0 / math.sqrt(2.0)
