"""Joint spectral amplitude of ring-generated photon pairs.

The biphoton emitted by SFWM in a doubly resonant ring is::

    F(ν_s, ν_i) ∝ α(ν_s + ν_i) · L_s(ν_s) · L_i(ν_i)

with α the (two-photon) pump envelope and L the Lorentzian resonance
lineshapes.  The heralded-photon purity of Section II is the Schmidt purity
of this object: when the pump is much broader than the resonances (pulsed
excitation) the energy-conservation ridge α is flat across the resonance
and F factorises → purity near one.  A narrow CW-like pump imprints strong
spectral anti-correlation → low purity.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.photonics.resonator import Microring
from repro.quantum.schmidt import SchmidtDecomposition, schmidt_decompose


@dataclasses.dataclass(frozen=True)
class JointSpectralAmplitude:
    """A discretised JSA on a detuning grid centred on the two resonances."""

    detunings_hz: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.detunings_hz.size, self.detunings_hz.size):
            raise ConfigurationError("JSA matrix must be square on the grid")

    def schmidt(self) -> SchmidtDecomposition:
        """Schmidt decomposition of the JSA."""
        return schmidt_decompose(self.matrix)

    @property
    def heralded_purity(self) -> float:
        """Purity of the heralded single photon."""
        return self.schmidt().purity


def ring_jsa(
    ring: Microring,
    pump_bandwidth_hz: float,
    grid_points: int = 101,
    span_linewidths: float = 12.0,
) -> JointSpectralAmplitude:
    """Build the JSA of a ring SFWM pair for a Gaussian pump envelope.

    Parameters
    ----------
    ring:
        Supplies the (equal) signal/idler Lorentzian linewidths.
    pump_bandwidth_hz:
        FWHM of the *two-photon* pump envelope α(ν_s+ν_i).  A self-locked
        CW pump has an effective bandwidth equal to the ring linewidth
        (the pump circulates in the same cavity); an external pulsed pump
        can be much broader.
    grid_points / span_linewidths:
        Discretisation of the detuning grid.
    """
    if pump_bandwidth_hz <= 0:
        raise ConfigurationError("pump bandwidth must be positive")
    if grid_points < 8:
        raise ConfigurationError("need at least 8 grid points")
    linewidth = ring.linewidth_hz()
    span = span_linewidths * linewidth
    detunings = np.linspace(-span / 2.0, span / 2.0, grid_points)
    signal = ring.lorentzian_amplitude(detunings)
    idler = ring.lorentzian_amplitude(detunings)
    sum_grid = detunings[:, None] + detunings[None, :]
    sigma = pump_bandwidth_hz / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    pump_envelope = np.exp(-(sum_grid**2) / (4.0 * sigma**2))
    matrix = pump_envelope * signal[:, None] * idler[None, :]
    return JointSpectralAmplitude(detunings_hz=detunings, matrix=matrix)


def purity_vs_pump_bandwidth(
    ring: Microring,
    bandwidth_ratios: np.ndarray,
    grid_points: int = 101,
) -> np.ndarray:
    """Heralded purity for pump bandwidths given as multiples of the ring
    linewidth — the ablation study behind the "pure heralded photons" claim.
    """
    ratios = np.asarray(bandwidth_ratios, dtype=float)
    if np.any(ratios <= 0):
        raise ConfigurationError("bandwidth ratios must be positive")
    linewidth = ring.linewidth_hz()
    purities = np.empty(ratios.size)
    for i, ratio in enumerate(ratios):
        jsa = ring_jsa(ring, ratio * linewidth, grid_points=grid_points)
        purities[i] = jsa.heralded_purity
    return purities
