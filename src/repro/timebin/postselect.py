"""Central-slot post-selection and multi-photon coincidence probabilities.

After each photon passes its analysis interferometer, only events where
*every* photon lands in the central arrival slot are kept; those events
implement a product of equatorial projections on the time-bin qubits.
This module evaluates the post-selected probabilities directly on density
matrices so that noise channels (multi-pair white noise, residual phase
noise) propagate exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, DimensionMismatchError
from repro.quantum import hilbert
from repro.quantum.states import DensityMatrix


def central_slot_povm(phase_rad: float, transmission: float = 1.0) -> np.ndarray:
    """POVM element of "photon detected in the central slot" at phase φ.

    M(φ) = (T/4)·(|e⟩ + e^{-iφ}|l⟩)(⟨e| + e^{+iφ}⟨l|)

    The 1/4 is the two-path post-selection factor of the Michelson; T is
    the analyser transmission.  M(φ) + M(φ+π) = T/2 · I, so conditioned on
    a central-slot click the analyser measures cos(φ)σx − sin(φ)σy.
    """
    if not 0.0 < transmission <= 1.0:
        raise ConfigurationError("transmission must be in (0, 1]")
    v = np.array([1.0, np.exp(-1j * phase_rad)], dtype=complex)
    return (transmission / 4.0) * np.outer(v, v.conj())


def coincidence_probability(
    state: DensityMatrix,
    phases_rad: Sequence[float],
    transmissions: Sequence[float] | None = None,
) -> float:
    """Probability that all photons land centrally, at the given phases.

    ``state`` must be an n-qubit time-bin state with one qubit per photon;
    ``phases_rad`` has one analyser phase per photon.
    """
    n = state.num_subsystems
    if any(d != 2 for d in state.dims):
        raise DimensionMismatchError(
            f"time-bin post-selection needs qubits, got dims {state.dims}"
        )
    if len(phases_rad) != n:
        raise ConfigurationError(
            f"{n}-photon state needs {n} phases, got {len(phases_rad)}"
        )
    if transmissions is None:
        transmissions = [1.0] * n
    if len(transmissions) != n:
        raise ConfigurationError("one transmission per photon required")
    factors = [
        central_slot_povm(phase, transmission)
        for phase, transmission in zip(phases_rad, transmissions)
    ]
    povm = hilbert.tensor(*factors)
    return state.probability(povm)


def ideal_twofold_fringe(
    phase_sum_rad: np.ndarray, pair_phase_rad: float = 0.0
) -> np.ndarray:
    """Analytic two-photon fringe: P(φₐ+φ_b) = (1 + cos(φₐ+φ_b + θ))/16.

    θ is the pair phase 2φ_p inherited from the pump.  This closed form is
    what the density-matrix path must reproduce (cross-checked in tests).
    """
    phases = np.asarray(phase_sum_rad, dtype=float)
    return (1.0 + np.cos(phases + pair_phase_rad)) / 16.0
