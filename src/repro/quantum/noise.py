"""Noise channel acting on :class:`~repro.quantum.states.DensityMatrix`.

The experiments' imperfections enter as **white noise** (an isotropic
depolarising mixture): multi-pair events and accidental coincidences wash
every analysis basis equally.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PhysicsError
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
