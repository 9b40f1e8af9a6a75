"""Passive optical components of the measurement chain.

A component enters the quantum observables only through transmission
factors and routing probabilities, so it is a small stochastic map on
photon streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.timetags import thin_stream
from repro.utils.rng import RandomStream
from repro.utils.units import loss_db_to_transmission


@dataclasses.dataclass(frozen=True)
class PolarizingBeamSplitter:
    """A PBS separating the type-II signal/idler by polarization.

    Parameters
    ----------
    extinction_ratio_db:
        Power ratio between correct and wrong output port for a pure
        input polarization (20-30 dB typical for fiber PBS).
    insertion_loss_db:
        Common-mode loss.
    """

    extinction_ratio_db: float = 25.0
    insertion_loss_db: float = 0.5

    def __post_init__(self) -> None:
        if self.extinction_ratio_db <= 0:
            raise ConfigurationError("extinction ratio must be positive dB")
        if self.insertion_loss_db < 0:
            raise ConfigurationError("insertion loss must be >= 0 dB")

    @property
    def wrong_port_probability(self) -> float:
        """Probability a photon exits the wrong port."""
        leak = loss_db_to_transmission(self.extinction_ratio_db)
        return leak / (1.0 + leak)

    def split(
        self, times_s: np.ndarray, polarization: str, rng: RandomStream
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route a stream of the given polarization to (TE port, TM port)."""
        if polarization not in ("TE", "TM"):
            raise ConfigurationError(
                f"polarization must be TE or TM, got {polarization!r}"
            )
        times = thin_stream(
            times_s, loss_db_to_transmission(self.insertion_loss_db), rng
        )
        wrong = rng.random(times.size) < self.wrong_port_probability
        correct_stream = times[~wrong]
        wrong_stream = times[wrong]
        if polarization == "TE":
            return np.sort(correct_stream), np.sort(wrong_stream)
        return np.sort(wrong_stream), np.sort(correct_stream)
