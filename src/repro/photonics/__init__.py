"""Integrated nonlinear photonics substrate.

Models the paper's hardware — a high-Q Hydex microring resonator with a
200 GHz free spectral range — from material dispersion up to spontaneous
four-wave mixing rates, optical parametric oscillation and the pump
configurations that select which quantum state the comb emits.
"""

from repro.photonics.materials import HYDEX, SILICA, Material
from repro.photonics.waveguide import Waveguide
from repro.photonics.resonator import Microring, RingCoupling
from repro.photonics.comb import CombGrid, ChannelPair
from repro.photonics.fwm import SFWMProcess, TypeIIProcess
from repro.photonics.opo import ParametricOscillator
from repro.photonics.pump import (
    DoublePulsePump,
    DualPolarizationPump,
    SelfLockedPump,
)

__all__ = [
    "ChannelPair",
    "CombGrid",
    "DoublePulsePump",
    "DualPolarizationPump",
    "HYDEX",
    "Material",
    "Microring",
    "ParametricOscillator",
    "RingCoupling",
    "SFWMProcess",
    "SILICA",
    "SelfLockedPump",
    "TypeIIProcess",
]
