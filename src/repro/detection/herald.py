"""Heralded single-photon figures of merit.

Section II's "pure heralded single photons" claim is quantified by the
heralded autocorrelation g²_h(0) (≪ 1 for a single photon).  It is
computed from click streams the same way the experiment does: the signal
arm is split on a 50/50 coupler onto two detectors, and triple/double
coincidences with the idler herald are counted.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.coincidence import count_coincidences
from repro.detection.tdc import ascending
from repro.utils.rng import RandomStream


def split_on_beamsplitter(
    times_s: np.ndarray, rng: RandomStream, transmission: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Route each click to one of two outputs with the given probability."""
    if not 0.0 < transmission < 1.0:
        raise ConfigurationError(
            f"transmission must be in (0, 1), got {transmission}"
        )
    times = np.asarray(times_s, dtype=float)
    to_first = rng.random(times.size) < transmission
    return times[to_first], times[~to_first]


def heralded_g2_from_tags(
    herald_times_s: np.ndarray,
    arm1_times_s: np.ndarray,
    arm2_times_s: np.ndarray,
    window_s: float,
) -> float:
    """g²_h(0) = N_h·N_h12 / (N_h1·N_h2) from click streams.

    N_h = herald singles, N_h1/N_h2 = twofold coincidences of each split
    arm with the herald, N_h12 = threefold coincidences.  Values well below
    one certify single-photon character.
    """
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    herald = ascending(herald_times_s)
    arm1 = ascending(arm1_times_s)
    arm2 = ascending(arm2_times_s)
    n_herald = herald.size
    if n_herald == 0:
        raise ConfigurationError("no herald clicks recorded")
    n_h1 = count_coincidences(herald, arm1, window_s)
    n_h2 = count_coincidences(herald, arm2, window_s)
    if n_h1 == 0 or n_h2 == 0:
        return 0.0
    n_h12 = _triple_coincidences(herald, arm1, arm2, window_s)
    return float(n_herald * n_h12 / (n_h1 * n_h2))


def _triple_coincidences(
    herald: np.ndarray, arm1: np.ndarray, arm2: np.ndarray, window_s: float
) -> int:
    """Heralds with at least one click in *both* arms within the window."""
    count = 0
    lo1 = lo2 = 0
    half = window_s / 2.0
    for t in herald:
        while lo1 < arm1.size and arm1[lo1] < t - half:
            lo1 += 1
        while lo2 < arm2.size and arm2[lo2] < t - half:
            lo2 += 1
        hit1 = lo1 < arm1.size and arm1[lo1] <= t + half
        hit2 = lo2 < arm2.size and arm2[lo2] <= t + half
        if hit1 and hit2:
            count += 1
    return count
