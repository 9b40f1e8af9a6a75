"""Interferometer phase stabilisation.

The experiment's Michelson interferometers are "phase-stabilised" with a
piezo actuator in a feedback loop.  What survives the lock is a small
residual phase error; what an *unlocked* interferometer would do is a
random walk that washes the fringes out entirely.  Both regimes are
modeled so the reproduction can show why stabilisation is necessary.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class PhaseController:
    """A piezo phase actuator with a feedback lock.

    Parameters
    ----------
    residual_sigma_rad:
        RMS phase error when locked (set by the lock bandwidth and the
        reference-laser noise; ~0.1 rad in fiber Michelsons).
    drift_rate_rad_per_sqrt_s:
        Random-walk coefficient of the *unlocked* interferometer (thermal
        and acoustic drift).
    locked:
        Whether the feedback loop is engaged.
    """

    residual_sigma_rad: float = 0.1
    drift_rate_rad_per_sqrt_s: float = 0.5
    locked: bool = True

    def __post_init__(self) -> None:
        if self.residual_sigma_rad < 0 or self.drift_rate_rad_per_sqrt_s < 0:
            raise ConfigurationError("noise parameters must be >= 0")

    def sample_phase_errors(
        self, set_points_rad: np.ndarray, dwell_time_s: float, rng: RandomStream
    ) -> np.ndarray:
        """Actual phases realised while dwelling at each set point.

        Locked: set point + independent Gaussian residuals.  Unlocked: the
        error random-walks from step to step with variance growing as the
        dwell time.
        """
        set_points = np.asarray(set_points_rad, dtype=float)
        if dwell_time_s <= 0:
            raise ConfigurationError("dwell time must be positive")
        if self.locked:
            return set_points + rng.normal(
                0.0, self.residual_sigma_rad, set_points.size
            )
        step_sigma = self.drift_rate_rad_per_sqrt_s * math.sqrt(dwell_time_s)
        walk = np.cumsum(rng.normal(0.0, step_sigma, set_points.size))
        return set_points + walk
