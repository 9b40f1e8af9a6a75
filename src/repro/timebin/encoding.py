"""Time-bin qubit encoding.

A photon generated by either the first or the second pump pulse carries a
qubit in the arrival-time basis: |early⟩ ≡ |0⟩, |late⟩ ≡ |1⟩.  Because
SFWM annihilates *two* pump photons, a pair generated by a double pulse
with inter-pulse phase φ_p is in (|ee⟩ + e^{2iφ_p}|ll⟩)/√2 — the |el⟩ and
|le⟩ branches are absent since both photons of a pair are born in the same
pulse.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.qubits import bell_state

def time_bin_bell_state(pump_phase_rad: float = 0.0) -> np.ndarray:
    """The pair state from a double-pulse pump: (|ee⟩+e^{2iφ_p}|ll⟩)/√2."""
    return bell_state("phi+", phase=2.0 * pump_phase_rad)


def time_bin_multiphoton_state(pump_phase_rad: float, num_pairs: int) -> np.ndarray:
    """Product of ``num_pairs`` identical time-bin Bell pairs.

    All pairs come from the same double pulse, hence share the phase — the
    precondition Section V states for combining Bell pairs into a
    four-photon entangled state.
    """
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
    pair = time_bin_bell_state(pump_phase_rad)
    state = pair
    for _ in range(num_pairs - 1):
        state = np.kron(state, pair)
    return state
