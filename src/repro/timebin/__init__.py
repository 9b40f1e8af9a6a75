"""Time-bin entanglement substrate.

Implements the analysis chain of Sections IV and V: time-bin qubit
encoding, the imbalanced phase-stabilised Michelson interferometers, the
arrival-slot post-selection that erases which-pulse information, and
fringe scans with visibility fits.
"""

from repro.timebin.encoding import time_bin_bell_state
from repro.timebin.interferometer import UnbalancedMichelson
from repro.timebin.postselect import (
    central_slot_povm,
    coincidence_probability,
)
from repro.timebin.stabilization import PhaseController
from repro.timebin.fringes import FringeScan, FringeScanResult

__all__ = [
    "FringeScan",
    "FringeScanResult",
    "PhaseController",
    "UnbalancedMichelson",
    "central_slot_povm",
    "coincidence_probability",
    "time_bin_bell_state",
]
