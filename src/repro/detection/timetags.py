"""Monte-Carlo generation of correlated photon time tags.

The biphoton emitted by a doubly resonant ring has an intensity
cross-correlation ``G²(τ) ∝ exp(-2π·Δν·|τ|)`` (Lorentzian linewidth Δν on
both signal and idler).  A pair event is therefore sampled as a common
emission time plus a Laplace-distributed signal-idler delay with scale
1/(2π·Δν) — exactly the statistics the time-resolved measurement of
Section II fits to recover the 110 MHz linewidth.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.fitting import linewidth_to_decay_rate
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class PairStream:
    """Emission times of a photon-pair ensemble (before any detection)."""

    signal_times_s: np.ndarray
    idler_times_s: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        if self.signal_times_s.shape != self.idler_times_s.shape:
            raise ConfigurationError("signal and idler streams must pair up")
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")


@dataclasses.dataclass(frozen=True)
class BiphotonSource:
    """A CW-pumped pair source on one channel pair.

    Parameters
    ----------
    pair_rate_hz:
        Mean generated pair rate (pre-loss), e.g. from
        :meth:`repro.core.calibration.HeraldedCalibration.generated_pair_rate_hz`.
    linewidth_hz:
        Lorentzian FWHM of signal and idler (the ring linewidth).
    """

    pair_rate_hz: float
    linewidth_hz: float

    def __post_init__(self) -> None:
        if self.pair_rate_hz < 0:
            raise ConfigurationError("pair rate must be >= 0")
        if self.linewidth_hz <= 0:
            raise ConfigurationError("linewidth must be positive")

    @property
    def correlation_decay_rate(self) -> float:
        """Two-sided exponential rate Γ = 2π·Δν of the signal-idler delay."""
        return linewidth_to_decay_rate(self.linewidth_hz)

    def generate(self, duration_s: float, rng: RandomStream) -> PairStream:
        """Sample a pair stream over ``duration_s`` seconds.

        Pair emissions are a homogeneous Poisson process; the signal-idler
        delay is Laplace with scale 1/Γ, split symmetrically so that
        neither photon is systematically first (the ring stores both).
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        n_pairs = int(rng.poisson(self.pair_rate_hz * duration_s))
        emission = rng.uniform(0.0, duration_s, n_pairs)
        emission.sort()
        # Laplace delay: exponential magnitude with random sign.  Halved in
        # place, with the idler written over the emissions: the values of
        # emission ± delay / 2 without three more stream-sized buffers.
        # The sign spends one uniform per pair, negative below one half:
        # the draws and values of ``choice([-1.0, 1.0])`` times the delay.
        half_delay = rng.exponential(1.0 / self.correlation_decay_rate, n_pairs)
        negative = rng.random(n_pairs) < 0.5
        np.negative(half_delay, out=half_delay, where=negative)
        del negative
        half_delay /= 2.0
        signal = emission + half_delay
        idler = np.subtract(emission, half_delay, out=emission)
        return PairStream(
            signal_times_s=signal, idler_times_s=idler, duration_s=duration_s
        )


def uncorrelated_stream(
    rate_hz: float, duration_s: float, rng: RandomStream
) -> np.ndarray:
    """A plain Poisson click stream (background light, fluorescence)."""
    if rate_hz < 0:
        raise ConfigurationError("rate must be >= 0")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    n = int(rng.poisson(rate_hz * duration_s))
    times = rng.uniform(0.0, duration_s, n)
    times.sort()
    return times


def thin_stream(times_s: np.ndarray, transmission: float, rng: RandomStream):
    """Bernoulli-thin a photon stream through a lossy element."""
    if not 0.0 <= transmission <= 1.0:
        raise ConfigurationError(
            f"transmission must be in [0, 1], got {transmission}"
        )
    times = np.asarray(times_s, dtype=float)
    if transmission == 1.0:
        return times.copy()
    keep = rng.random(times.size) < transmission
    return times[keep]
