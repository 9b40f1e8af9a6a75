"""Hypothesis strategies for quantum states and physical parameters."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.quantum.states import DensityMatrix

#: Finite floats in a tame range, for amplitudes.
amplitude = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def kets(draw, dim: int = 4):
    """A random normalised complex ket of the given dimension."""
    real = draw(
        st.lists(amplitude, min_size=dim, max_size=dim).filter(
            lambda v: sum(abs(x) for x in v) > 0.1
        )
    )
    imag = draw(st.lists(amplitude, min_size=dim, max_size=dim))
    vector = np.array(real, dtype=complex) + 1j * np.array(imag, dtype=complex)
    norm = np.linalg.norm(vector)
    if norm < 1e-6:
        vector = np.zeros(dim, dtype=complex)
        vector[0] = 1.0
        norm = 1.0
    return vector / norm


@st.composite
def density_matrices(draw, dims: tuple[int, ...] = (2, 2), rank: int = 2):
    """A random mixed state as a convex mixture of random pure states."""
    total = int(np.prod(dims))
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=rank,
            max_size=rank,
        )
    )
    weights = np.array(weights) / np.sum(weights)
    matrix = np.zeros((total, total), dtype=complex)
    for weight in weights:
        ket = draw(kets(total))
        matrix += weight * np.outer(ket, ket.conj())
    return DensityMatrix(matrix, list(dims))


@st.composite
def unitaries_2x2(draw):
    """A random SU(2) element [[a, b], [-b*, a*]] with |a|² + |b|² = 1."""
    theta = draw(st.floats(min_value=0.0, max_value=np.pi / 2))
    phase_a = draw(st.floats(min_value=0.0, max_value=2 * np.pi))
    phase_b = draw(st.floats(min_value=0.0, max_value=2 * np.pi))
    a = np.exp(1j * phase_a) * np.cos(theta)
    b = np.exp(1j * phase_b) * np.sin(theta)
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


#: Physically sensible scan phases.
phases = st.floats(
    min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False
)

#: Probabilities and visibilities.
unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
