"""Discrete-variable quantum optics substrate.

Implements (from scratch, on numpy only) the quantum-information machinery
the paper's experiments rest on: density matrices, qubit algebra, Schmidt
decompositions, entanglement measures, projective measurement sampling,
maximum-likelihood state tomography and CHSH/Bell analysis.
"""

from repro.quantum.states import DensityMatrix
from repro.quantum.qubits import (
    bell_state,
    computational_ket,
    product_state,
)
from repro.quantum.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)
from repro.quantum.entanglement import concurrence, log_negativity, negativity
from repro.quantum.bell import (
    chsh_value,
    horodecki_chsh_maximum,
    visibility_to_chsh,
)
from repro.quantum.tomography import (
    TomographyResult,
    mle_tomography,
)
from repro.quantum.noise import add_white_noise

__all__ = [
    "DensityMatrix",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "TomographyResult",
    "add_white_noise",
    "bell_state",
    "chsh_value",
    "computational_ket",
    "concurrence",
    "horodecki_chsh_maximum",
    "log_negativity",
    "mle_tomography",
    "negativity",
    "product_state",
    "visibility_to_chsh",
]
