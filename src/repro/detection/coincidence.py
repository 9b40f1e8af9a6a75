"""Coincidence counting and the coincidence-to-accidental ratio (CAR).

The CAR is the paper's workhorse figure of merit: coincidences in a window
centred on zero delay, divided by the accidental level measured in offset
windows.  Section II reports CAR between 12.8 and 32.4 at 15 mW;
Section III reports CAR ≈ 10 at 2 mW for the type-II source.

Counting finds window boundaries with ``np.searchsorted``.  The CAR
first keeps only the clicks with a partner in reach of any window
(:func:`~repro.detection.tdc.partner_candidates`), gathers every (a, b)
pair inside the union of its coincidence and accidental windows with
one pair of ``np.searchsorted`` passes over those, then counts each
window on that small candidate set with the same float comparisons a
one-window count uses.  The original per-window, per-start sweep stays
as private reference oracles (:func:`_count_window_loop`,
:func:`_car_from_tags_loop`); the equivalence tests hold the counts
here to them exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.tdc import _collect_delays_loop, ascending, collect_delays
from repro.detection.tdc import partner_candidates, range_indices, window_slices
from repro.utils import stats


def count_coincidences(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    window_s: float,
    center_s: float = 0.0,
) -> int:
    """Number of (a, b) click pairs with b-a in [center ± window/2].

    Stream b is shifted so the target delay window is centred on zero —
    the float operations of :func:`_count_window_loop`, so the counts
    are identical pair by pair.
    """
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    a = ascending(times_a_s)
    b = ascending(times_b_s)
    shifted = b - center_s if center_s != 0.0 else b
    half = window_s / 2.0
    lo, hi = window_slices(shifted, a - half, a + half)
    return int((hi - lo).sum())


def _count_window_loop(
    sorted_a: np.ndarray,
    sorted_b: np.ndarray,
    window_s: float,
    center_s: float,
) -> int:
    """Reference oracle of one window count on pre-sorted streams: the
    original per-start sweep over stream b shifted by ``center_s``."""
    shifted = sorted_b - center_s if center_s != 0.0 else sorted_b
    return int(_collect_delays_loop(sorted_a, shifted, window_s / 2.0).size)


def _count_windows(
    sorted_a: np.ndarray,
    sorted_b: np.ndarray,
    window_s: float,
    centers_s: list[float],
) -> list[int]:
    """Window counts for several centres from one gather of candidate pairs.

    Only clicks with a partner within ``max |c| + window/2`` can be in a
    window, so the rest are dropped first (:func:`partner_candidates`).
    Rounding is monotone, so ``b - c`` only shrinks as ``c`` grows: a pair
    inside any window lies at or above the lowest window's lower edge and
    at or below the highest window's upper edge, both found by one
    ``searchsorted`` pass.  The pairs between those edges are flattened
    as in the TDC delay collection (:func:`range_indices`), and each
    window is then counted on them with the exact comparisons of
    :func:`count_coincidences` — so every count equals the per-window one.
    """
    half = window_s / 2.0
    low_center, high_center = min(centers_s), max(centers_s)
    reach = max(abs(low_center), abs(high_center)) + half
    sorted_a, sorted_b = partner_candidates(sorted_a, sorted_b, reach)
    lo = np.searchsorted(sorted_b - low_center, sorted_a - half, side="left")
    hi = np.searchsorted(sorted_b - high_center, sorted_a + half, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return [0] * len(centers_s)
    pair_b = sorted_b[range_indices(lo, counts, total)]
    pair_a = np.repeat(sorted_a, counts)
    window_low = pair_a - half
    window_high = pair_a + half
    result = []
    for center in centers_s:
        shifted = pair_b - center if center != 0.0 else pair_b
        inside = (shifted >= window_low) & (shifted <= window_high)
        result.append(int(np.count_nonzero(inside)))
    return result


def coincidence_histogram(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    bin_width_s: float,
    max_delay_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Delay histogram (centres, counts) between two click streams."""
    if bin_width_s <= 0 or max_delay_s <= 0:
        raise ConfigurationError("bin width and max delay must be positive")
    a = ascending(times_a_s)
    b = ascending(times_b_s)
    delays = collect_delays(a, b, max_delay_s)
    n_bins = max(int(round(2.0 * max_delay_s / bin_width_s)), 2)
    edges = np.linspace(-max_delay_s, max_delay_s, n_bins + 1)
    counts, _ = np.histogram(delays, bins=edges)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, counts.astype(float)


@dataclasses.dataclass(frozen=True)
class CoincidenceResult:
    """Outcome of a CAR measurement on one channel pair."""

    coincidences: int
    accidentals_mean: float
    duration_s: float
    window_s: float

    @property
    def coincidence_rate_hz(self) -> float:
        """Raw coincidence rate (true + accidental)."""
        return self.coincidences / self.duration_s

    @property
    def true_coincidence_rate_hz(self) -> float:
        """Accidental-subtracted coincidence rate — the paper's
        "pair generation rate per channel"."""
        return max(self.coincidences - self.accidentals_mean, 0.0) / self.duration_s

    @property
    def car(self) -> float:
        """Coincidence-to-accidental ratio."""
        if self.accidentals_mean <= 0:
            return math.inf
        return self.coincidences / self.accidentals_mean

    @property
    def car_error(self) -> float:
        """One-sigma error on the CAR from Poisson statistics."""
        if self.accidentals_mean <= 0:
            return math.inf
        return stats.ratio_error(
            float(self.coincidences),
            math.sqrt(max(self.coincidences, 1)),
            self.accidentals_mean,
            math.sqrt(max(self.accidentals_mean, 1.0)),
        )


def accidental_window_centers(
    num_accidental_windows: int, accidental_offset_s: float
) -> list[float]:
    """Centres of the offset accidental windows, alternating sides.

    Window k sits at ``±(1 + k//2) · offset``: the windows march outward
    on both sides of the coincidence peak to cancel slow drifts.
    """
    if num_accidental_windows < 1:
        raise ConfigurationError("need at least one accidental window")
    centers = []
    for k in range(num_accidental_windows):
        side = 1 if k % 2 == 0 else -1
        centers.append(side * (accidental_offset_s + (k // 2) * accidental_offset_s))
    return centers


def car_from_tags(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    duration_s: float,
    window_s: float = 2.5e-9,
    num_accidental_windows: int = 10,
    accidental_offset_s: float = 50e-9,
) -> CoincidenceResult:
    """Measure coincidences and accidentals exactly as the experiment does.

    Coincidences are counted in a window centred at zero delay; the
    accidental level is the mean count over ``num_accidental_windows``
    windows offset far outside the biphoton correlation time (alternating
    sides to cancel slow drifts).  Each stream is sorted once and every
    window is counted from one gather of candidate pairs
    (:func:`_count_windows`).
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    if accidental_offset_s <= window_s:
        raise ConfigurationError(
            "accidental offset must exceed the coincidence window"
        )
    centers = accidental_window_centers(
        num_accidental_windows, accidental_offset_s
    )
    coincidences, *accidental_counts = _count_windows(
        ascending(times_a_s), ascending(times_b_s), window_s, [0.0, *centers]
    )
    return CoincidenceResult(
        coincidences=coincidences,
        accidentals_mean=float(np.mean(accidental_counts)),
        duration_s=duration_s,
        window_s=window_s,
    )


def _car_from_tags_loop(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    duration_s: float,
    window_s: float = 2.5e-9,
    num_accidental_windows: int = 10,
    accidental_offset_s: float = 50e-9,
) -> CoincidenceResult:
    """Reference oracle of :func:`car_from_tags` (arguments taken as
    valid): every window counted on its own by :func:`_count_window_loop`."""
    a = ascending(times_a_s)
    b = ascending(times_b_s)
    centers = accidental_window_centers(
        num_accidental_windows, accidental_offset_s
    )
    accidental_counts = [
        _count_window_loop(a, b, window_s, center) for center in centers
    ]
    return CoincidenceResult(
        coincidences=_count_window_loop(a, b, window_s, 0.0),
        accidentals_mean=float(np.mean(accidental_counts)),
        duration_s=duration_s,
        window_s=window_s,
    )


def expected_car(
    true_pair_rate_hz: float,
    singles_a_hz: float,
    singles_b_hz: float,
    window_s: float,
) -> float:
    """Analytic CAR estimate: (C + A)/A with A = S_a·S_b·w.

    Useful as a cross-check of the Monte-Carlo result and for fast
    parameter scans (the ablation benches).
    """
    if min(true_pair_rate_hz, singles_a_hz, singles_b_hz) < 0 or window_s <= 0:
        raise ConfigurationError("rates must be >= 0 and window > 0")
    accidental_rate = singles_a_hz * singles_b_hz * window_s
    if accidental_rate == 0:
        return math.inf
    return (true_pair_rate_hz + accidental_rate) / accidental_rate
