"""Noise channels acting on :class:`~repro.quantum.states.DensityMatrix`.

The experiments' imperfections map onto a small set of channels:

* **white noise** (isotropic depolarising mixture) — multi-pair events and
  accidental coincidences wash every analysis basis equally;
* **dephasing** — residual interferometer phase noise after stabilisation;
* **amplitude damping** — photon loss in a post-selected dual-rail qubit is
  mostly heralded away, but detector afterpulsing/dark counts re-enter as
  white noise, so loss appears here for completeness of the substrate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PhysicsError
from repro.quantum import hilbert
from repro.quantum.operators import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, embed
from repro.quantum.states import DensityMatrix


def add_white_noise(state: DensityMatrix, visibility: float) -> DensityMatrix:
    """Mix a state with the maximally mixed state.

    Returns ``V·ρ + (1-V)·I/d``.  For a Bell state this produces a Werner
    state whose fringe visibility in any basis equals ``V`` — the standard
    model linking measured interference visibility to the density matrix.
    """
    if not 0.0 <= visibility <= 1.0:
        raise PhysicsError(f"visibility must be in [0, 1], got {visibility}")
    d = state.dimension
    mixed = np.eye(d, dtype=complex) / d
    blended = visibility * state.matrix + (1.0 - visibility) * mixed
    return DensityMatrix(blended, state.dims)


def depolarizing(state: DensityMatrix, probability: float, qubit: int) -> DensityMatrix:
    """Single-qubit depolarising channel with error probability ``p``.

    With probability p the qubit is replaced by I/2 (implemented as the
    uniform Pauli twirl).
    """
    _check_probability(probability)
    _check_qubit_dims(state)
    n = state.num_subsystems
    rho = state.matrix
    result = (1.0 - probability) * rho
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        op = embed(pauli, qubit, n)
        result = result + (probability / 3.0) * (op @ rho @ op.conj().T)
    return DensityMatrix(result, state.dims)


def dephasing(state: DensityMatrix, probability: float, qubit: int) -> DensityMatrix:
    """Single-qubit phase-flip channel: Z with probability ``p``.

    A Gaussian residual phase error of standard deviation σ on an analysis
    interferometer is equivalent to p = (1 - e^{-σ²/2})/2.
    """
    _check_probability(probability)
    _check_qubit_dims(state)
    n = state.num_subsystems
    z = embed(PAULI_Z, qubit, n)
    rho = state.matrix
    result = (1.0 - probability) * rho + probability * (z @ rho @ z.conj().T)
    return DensityMatrix(result, state.dims)


def amplitude_damping(
    state: DensityMatrix, probability: float, qubit: int
) -> DensityMatrix:
    """Single-qubit amplitude damping (|1⟩ decays to |0⟩ with prob ``p``)."""
    _check_probability(probability)
    _check_qubit_dims(state)
    n = state.num_subsystems
    k0_single = np.array([[1, 0], [0, np.sqrt(1 - probability)]], dtype=complex)
    k1_single = np.array([[0, np.sqrt(probability)], [0, 0]], dtype=complex)
    k0 = _embed_kraus(k0_single, qubit, n)
    k1 = _embed_kraus(k1_single, qubit, n)
    rho = state.matrix
    result = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
    return DensityMatrix(result, state.dims)


def multi_pair_visibility(mu: float) -> float:
    """Interference-visibility ceiling set by double-pair emission.

    For a two-mode squeezed source with pair probability μ per mode, the
    dominant contamination of the post-selected two-photon subspace comes
    from double pairs, which carry no phase coherence and act as white
    noise.  To first order in μ the visibility ceiling is::

        V_max = 1 / (1 + 2μ)

    (two incoherent double-pair histories — both pairs early, both late —
    pollute each coincidence window relative to the single-pair amplitude).
    """
    if mu < 0:
        raise PhysicsError(f"pair probability must be >= 0, got {mu}")
    return float(1.0 / (1.0 + 2.0 * mu))


def _embed_kraus(kraus: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    factors = [PAULI_I] * num_qubits
    factors[qubit] = kraus
    return hilbert.tensor(*factors)


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise PhysicsError(f"probability must be in [0, 1], got {probability}")


def _check_qubit_dims(state: DensityMatrix) -> None:
    if any(d != 2 for d in state.dims):
        raise PhysicsError(
            f"qubit channels require all-qubit subsystems, got dims {state.dims}"
        )
