"""Single-photon detector model.

The experiments used free-running InGaAs avalanche photodiodes: modest
quantum efficiency, tens-of-kHz dark rates and ~100 ps timing jitter.
Those three numbers — not the ring — set the measured CAR band of
Section II, which is why the model carries them explicitly.

Dead time is applied by an exact vectorised equivalent of the sequential
filter (kept as its oracle), whatever the stream length; its gap scan
runs in time blocks (:func:`repro.detection.tdc.gaps_below`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.detection.tdc import gaps_below
from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream


@dataclasses.dataclass(frozen=True)
class DetectorModel:
    """A click detector with efficiency, darks, jitter and dead time.

    Parameters
    ----------
    efficiency:
        Overall click probability per arriving photon.  Collection losses
        between source and detector can either be folded in here or applied
        upstream; the experiment drivers fold the full arm budget in.
    dark_count_rate_hz:
        Free-running dark count rate.
    jitter_sigma_s:
        Gaussian timing jitter (one sigma).
    dead_time_s:
        Minimum separation between recorded clicks.
    """

    efficiency: float = 0.09
    dark_count_rate_hz: float = 20e3
    jitter_sigma_s: float = 120e-12
    dead_time_s: float = 10e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError(
                f"efficiency must be in (0, 1], got {self.efficiency}"
            )
        if self.dark_count_rate_hz < 0:
            raise ConfigurationError("dark count rate must be >= 0")
        if self.jitter_sigma_s < 0:
            raise ConfigurationError("jitter must be >= 0")
        if self.dead_time_s < 0:
            raise ConfigurationError("dead time must be >= 0")

    def detect(
        self,
        photon_times_s: np.ndarray,
        duration_s: float,
        rng: RandomStream,
    ) -> np.ndarray:
        """Convert photon arrival times into recorded click times.

        Applies, in order: Bernoulli efficiency thinning, Gaussian jitter,
        dark-count injection (uniform Poisson process over the duration),
        time sorting and dead-time filtering.  Returns sorted click times.
        """
        photon_times = np.asarray(photon_times_s, dtype=float)
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")

        detected = photon_times[rng.random(photon_times.size) < self.efficiency]
        if self.jitter_sigma_s > 0 and detected.size:
            detected = detected + rng.normal(0.0, self.jitter_sigma_s, detected.size)

        n_dark = rng.poisson(self.dark_count_rate_hz * duration_s)
        darks = rng.uniform(0.0, duration_s, int(n_dark))

        clicks = np.concatenate([detected, darks])
        del detected, darks  # free both copies before the sort
        clicks.sort()
        if self.dead_time_s > 0 and clicks.size > 1:
            clicks = _apply_dead_time(clicks, self.dead_time_s)
        return clicks

    def expected_singles_rate_hz(self, photon_rate_hz: float) -> float:
        """Mean click rate for a given incident photon rate (darks included,
        dead time neglected — valid far below saturation)."""
        if photon_rate_hz < 0:
            raise ConfigurationError("photon rate must be >= 0")
        return self.efficiency * photon_rate_hz + self.dark_count_rate_hz


def _dead_time_loop(sorted_times: np.ndarray, dead_time_s: float) -> np.ndarray:
    """The sequential filter, kept as the oracle of :func:`_apply_dead_time`:
    keep a click iff it is a dead time clear of the previous kept click."""
    kept = np.empty_like(sorted_times)
    count = 0
    last = -np.inf
    for t in sorted_times:
        if t - last >= dead_time_s:
            kept[count] = t
            count += 1
            last = t
    return kept[:count]


def _apply_dead_time(times: np.ndarray, dead_time_s: float) -> np.ndarray:
    """Drop clicks closer than the dead time to the previous *kept* click.

    The filter is sequential (:func:`_dead_time_loop`); this is its exact
    equivalent, jumping from kept click to kept click.

    A click whose gap to its immediate predecessor is at least the dead
    time is always kept: dropping earlier clicks only widens its gap.  The
    other ("blocked") clicks form runs, each headed by a kept click.  From
    a kept click ``k`` the next kept one is the first ``j`` with
    ``t[j] - t[k] >= dead_time`` — the loop's own comparison, monotone in
    ``j`` — located by ``searchsorted`` and nudged onto that exact
    comparison.  Every run is walked at once, one kept click per step, so
    streams with short runs finish in a few vectorised steps.  A walk only
    moves forward within its own run, so each kept click is unblocked in
    place and the one mask becomes the keep mask.
    """
    n = times.size
    blocked = np.zeros(n, dtype=bool)
    gaps_below(times, dead_time_s, out=blocked[1:])
    if not blocked.any():
        return times
    current = np.flatnonzero(~blocked[:-1] & blocked[1:])
    while current.size:
        current = _next_clear(times, current, dead_time_s)
        current = current[current < n]
        current = current[blocked[current]]
        blocked[current] = False
    return times[np.logical_not(blocked, out=blocked)]


def _next_clear(
    times: np.ndarray, indices: np.ndarray, dead_time_s: float
) -> np.ndarray:
    """For each index k, the first j > k with ``times[j] - times[k] >=
    dead_time_s`` (``times.size`` when there is none)."""
    n = times.size
    start = times[indices]
    first = np.maximum(
        np.searchsorted(times, start + dead_time_s, side="left"), indices + 1
    )
    while True:
        back = first > indices + 1
        back[back] = times[first[back] - 1] - start[back] >= dead_time_s
        if not back.any():
            break
        first[back] -= 1
    while True:
        ahead = first < n
        ahead[ahead] = times[first[ahead]] - start[ahead] < dead_time_s
        if not ahead.any():
            return first
        first[ahead] += 1
