"""Standard qubit states: computational basis, Bell, GHZ, products.

Time-bin qubits map |early⟩ → |0⟩ and |late⟩ → |1⟩ (see
:mod:`repro.timebin.encoding`); the Bell state the ring generates is
``(|00⟩ + e^{iφ}|11⟩)/√2`` with φ inherited from the double-pulse pump.
"""

from __future__ import annotations

import numpy as np

from repro.quantum import hilbert


def computational_ket(bits: str) -> np.ndarray:
    """Ket |b₁b₂…⟩ from a bit string like ``"01"``."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bits must be a non-empty string of 0/1, got {bits!r}")
    factors = [hilbert.basis_ket(2, int(b)) for b in bits]
    return hilbert.tensor(*factors)


def bell_state(kind: str = "phi+", phase: float = 0.0) -> np.ndarray:
    """One of the four Bell states, with an optional extra relative phase.

    ``kind`` is one of ``"phi+"``, ``"phi-"``, ``"psi+"``, ``"psi-"``.
    ``phase`` multiplies the second branch by ``e^{i·phase}`` — the time-bin
    Bell state produced by a double-pulse pump with pump phase φ_p is
    ``bell_state("phi+", phase=2*φ_p)`` because two pump photons are
    annihilated per generated pair.
    """
    zero_zero = computational_ket("00")
    zero_one = computational_ket("01")
    one_zero = computational_ket("10")
    one_one = computational_ket("11")
    branch_phase = np.exp(1j * phase)
    if kind == "phi+":
        ket = zero_zero + branch_phase * one_one
    elif kind == "phi-":
        ket = zero_zero - branch_phase * one_one
    elif kind == "psi+":
        ket = zero_one + branch_phase * one_zero
    elif kind == "psi-":
        ket = zero_one - branch_phase * one_zero
    else:
        raise ValueError(f"unknown Bell state kind {kind!r}")
    return ket / np.sqrt(2.0)


def product_state(*kets: np.ndarray) -> np.ndarray:
    """Tensor product of kets, each normalised first."""
    normalised = []
    for ket in kets:
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValueError("product_state factors must be nonzero")
        normalised.append(ket / norm)
    return hilbert.tensor(*normalised)


def two_bell_pairs(phase: float = 0.0) -> np.ndarray:
    """The four-photon state of Section V: |Bell⟩₁₂ ⊗ |Bell⟩₃₄.

    Both pairs inherit the same pump phase because they are generated by the
    same double-pulse excitation — this indistinguishability is what lets
    the paper combine them into a four-photon entangled state.
    """
    pair = bell_state("phi+", phase=phase)
    return product_state(pair, pair)
