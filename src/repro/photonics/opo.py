"""Optical parametric oscillation in the bichromatically pumped ring.

Section III reports that, as the orthogonally polarized pump power rises,
the cross-polarized output grows *quadratically* until the optical
parametric oscillation threshold at 14 mW, and *linearly* above it.  This
module models that transfer curve: below threshold the output is
spontaneous (parametric fluorescence, ∝ gain² ∝ P²); above threshold the
cavity field saturates the gain and the output follows the pump linearly
with a slope efficiency.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError, PhysicsError


@dataclasses.dataclass(frozen=True)
class ParametricOscillator:
    """Threshold model of the ring OPO.

    Parameters
    ----------
    threshold_power_w:
        Pump power at which round-trip parametric gain equals round-trip
        loss (14 mW in the paper).
    below_threshold_coefficient_w_per_w2:
        Spontaneous output per pump-power-squared [W/W²].
    slope_efficiency:
        dP_out/dP_in above threshold.
    """

    threshold_power_w: float = 14e-3
    below_threshold_coefficient_w_per_w2: float = 2.0e-6
    slope_efficiency: float = 0.08

    def __post_init__(self) -> None:
        if self.threshold_power_w <= 0:
            raise ConfigurationError("threshold power must be positive")
        if self.below_threshold_coefficient_w_per_w2 <= 0:
            raise ConfigurationError("below-threshold coefficient must be positive")
        if not 0.0 < self.slope_efficiency <= 1.0:
            raise ConfigurationError("slope efficiency must be in (0, 1]")

    def output_power_w(self, pump_power_w: np.ndarray | float) -> np.ndarray:
        """Output power vs pump power across the threshold.

        Below threshold: P_out = c·P²; above: the same value at threshold
        plus a linear term η·(P - P_th), keeping the curve continuous.
        """
        pump = np.asarray(pump_power_w, dtype=float)
        if np.any(pump < 0):
            raise PhysicsError("pump power must be >= 0")
        below = self.below_threshold_coefficient_w_per_w2 * pump**2
        at_threshold = (
            self.below_threshold_coefficient_w_per_w2 * self.threshold_power_w**2
        )
        above = at_threshold + self.slope_efficiency * (pump - self.threshold_power_w)
        return np.where(pump < self.threshold_power_w, below, above)
