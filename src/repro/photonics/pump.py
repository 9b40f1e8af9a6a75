"""Pump configurations — the paper's central knob.

The same microring emits four different families of quantum states purely
depending on how it is pumped:

* :class:`SelfLockedPump` — the laser cavity is closed *through* the ring
  ([6]), so the pump self-locks to a resonance: weeks-long stability with
  no active stabilisation.  → multiplexed heralded single photons.
* :class:`DualPolarizationPump` — two CW pumps on a TE and a TM resonance
  ([7]).  → cross-polarized pairs via type-II SFWM.

Time-bin entangled pairs and multi-photon states (Sections IV and V) come
from phase-coherent double pulses ([8]); no pump object models those —
their schemes build the state directly (:mod:`repro.timebin.encoding`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class SelfLockedPump:
    """Intra-cavity self-locked pump ([6]).

    The ring sits inside the pump laser's own cavity, so the lasing line
    automatically tracks the ring resonance — the origin of the paper's
    "several weeks with less than 5 % fluctuation, without any active
    stabilisation".

    Parameters
    ----------
    power_w:
        Average pump power at the ring input (15 mW in Section II).
    relative_drift_std:
        Standard deviation of slow multiplicative power drift (per
        correlation time) of the locked system.
    drift_correlation_time_s:
        Correlation time of the drift process (hours — thermal).
    """

    power_w: float = 15e-3
    relative_drift_std: float = 0.008
    drift_correlation_time_s: float = 6.0 * 3600.0

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ConfigurationError(f"power must be >= 0, got {self.power_w}")
        if not 0 <= self.relative_drift_std < 0.5:
            raise ConfigurationError("relative drift std must be in [0, 0.5)")
        if self.drift_correlation_time_s <= 0:
            raise ConfigurationError("drift correlation time must be positive")

    def average_power_w(self) -> float:
        """Average optical power delivered to the ring."""
        return self.power_w

    def power_series_w(
        self, duration_s: float, sample_interval_s: float, rng: RandomStream
    ) -> np.ndarray:
        """Simulate the locked pump power over time.

        An Ornstein-Uhlenbeck (mean-reverting) multiplicative drift: the
        self-locking pulls the power back to its set point on the drift
        correlation time, bounding the excursion — unlocked systems would
        random-walk away instead.
        """
        if duration_s <= 0 or sample_interval_s <= 0:
            raise ConfigurationError("duration and interval must be positive")
        n = int(duration_s / sample_interval_s) + 1
        theta = sample_interval_s / self.drift_correlation_time_s
        # Stationary OU: x_{k+1} = (1-θ)x_k + sqrt(θ(2-θ))·σ·ξ.
        noise_scale = self.relative_drift_std * math.sqrt(
            max(theta * (2.0 - theta), 0.0)
        )
        deviations = np.empty(n)
        deviations[0] = rng.normal(0.0, self.relative_drift_std)
        white = rng.normal(0.0, 1.0, n - 1)
        for k in range(1, n):
            deviations[k] = (1.0 - theta) * deviations[k - 1] + noise_scale * white[
                k - 1
            ]
        return self.power_w * (1.0 + deviations)


@dataclasses.dataclass(frozen=True)
class DualPolarizationPump:
    """Two CW pumps on orthogonally polarized resonances ([7])."""

    power_te_w: float
    power_tm_w: float

    def __post_init__(self) -> None:
        if self.power_te_w < 0 or self.power_tm_w < 0:
            raise ConfigurationError("pump powers must be >= 0")

    @property
    def total_power_w(self) -> float:
        """Combined pump power (the x-axis of the OPO transfer curve)."""
        return self.power_te_w + self.power_tm_w

