"""Coincidence counting and the coincidence-to-accidental ratio (CAR).

The CAR is the paper's workhorse figure of merit: coincidences in a window
centred on zero delay, divided by the accidental level measured in offset
windows.  Section II reports CAR between 12.8 and 32.4 at 15 mW;
Section III reports CAR ≈ 10 at 2 mW for the type-II source.

Counting ships three implementations selected with ``impl``: the
original per-window/per-start Python sweep (``"loop"``, the reference
oracle), a batch path (``"vectorized"``, the default) and a
``"chunked"`` path that splits the start stream into per-core chunks
counted through the shared pool and summed.  The vectorized CAR gathers
every (a, b) pair inside the union of its coincidence and accidental
windows with one pair of ``np.searchsorted`` passes, then counts each
window on that small candidate set with the same float comparisons the
per-window paths use.  All give identical counts for identical inputs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.tdc import collect_delays, range_indices, window_slices
from repro.utils import stats
from repro.utils.chunking import chunk_ranges, map_chunks
from repro.utils.dispatch import CHUNKED, LOOP, VECTORIZED, validate_impl


def count_coincidences(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    window_s: float,
    center_s: float = 0.0,
    impl: str = "vectorized",
) -> int:
    """Number of (a, b) click pairs with b-a in [center ± window/2]."""
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    validate_impl(impl, "count_coincidences impl")
    a = np.sort(np.asarray(times_a_s, dtype=float))
    b = np.sort(np.asarray(times_b_s, dtype=float))
    return _count_sorted(a, b, window_s, center_s, impl)


def _count_sorted(
    sorted_a: np.ndarray,
    sorted_b: np.ndarray,
    window_s: float,
    center_s: float,
    impl: str,
) -> int:
    """Window count on pre-sorted streams (one window per call).

    Stream b is shifted so the target delay window is centred on zero —
    the same float operations in both implementations, so the counts are
    identical pair by pair.
    """
    shifted = sorted_b - center_s if center_s != 0.0 else sorted_b
    half = window_s / 2.0
    if impl == LOOP:
        return int(collect_delays(sorted_a, shifted, half, impl="loop").size)
    if impl == CHUNKED:
        ranges = chunk_ranges(sorted_a.size)
        if len(ranges) > 1:
            return int(
                sum(
                    map_chunks(
                        _count_window_chunk,
                        [
                            (sorted_a[lo:hi], shifted, half)
                            for lo, hi in ranges
                        ],
                    )
                )
            )
    lo, hi = window_slices(shifted, sorted_a - half, sorted_a + half)
    return int((hi - lo).sum())


def _count_window_chunk(
    sorted_a_chunk: np.ndarray, shifted_b: np.ndarray, half_window_s: float
) -> int:
    """Window count for one start chunk (picklable chunk-pool task)."""
    lo, hi = window_slices(
        shifted_b, sorted_a_chunk - half_window_s, sorted_a_chunk + half_window_s
    )
    return int((hi - lo).sum())


def _ascending(times_s: np.ndarray) -> np.ndarray:
    """The stream as a float array in ascending order.

    Detector output is already sorted, so an O(n) check skips the sort.
    """
    times = np.asarray(times_s, dtype=float)
    if times.size > 1 and not np.all(times[1:] >= times[:-1]):
        return np.sort(times)
    return times


def _count_windows(
    sorted_a: np.ndarray,
    sorted_b: np.ndarray,
    window_s: float,
    centers_s: list[float],
) -> list[int]:
    """Window counts for several centres from one gather of candidate pairs.

    Rounding is monotone, so ``b - c`` only shrinks as ``c`` grows: a pair
    inside any window lies at or above the lowest window's lower edge and
    at or below the highest window's upper edge, both found by one
    ``searchsorted`` pass.  The pairs between those edges are flattened
    as in the TDC delay collection (:func:`range_indices`), and each
    window is then counted on them with the exact comparisons of
    :func:`_count_sorted` — so every count equals the per-window one.
    """
    half = window_s / 2.0
    low_center, high_center = min(centers_s), max(centers_s)
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
    impl: str = "vectorized",
) -> tuple[np.ndarray, np.ndarray]:
    """Delay histogram (centres, counts) between two click streams."""
    if bin_width_s <= 0 or max_delay_s <= 0:
        raise ConfigurationError("bin width and max delay must be positive")
    a = np.sort(np.asarray(times_a_s, dtype=float))
    b = np.sort(np.asarray(times_b_s, dtype=float))
    delays = collect_delays(a, b, max_delay_s, impl=impl)
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
    impl: str = "vectorized",
) -> CoincidenceResult:
    """Measure coincidences and accidentals exactly as the experiment does.

    Coincidences are counted in a window centred at zero delay; the
    accidental level is the mean count over ``num_accidental_windows``
    windows offset far outside the biphoton correlation time (alternating
    sides to cancel slow drifts).  The vectorized path sorts each stream
    once and counts all windows by ``np.searchsorted``; the loop path
    re-runs the original per-window sweep.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    if accidental_offset_s <= window_s:
        raise ConfigurationError(
            "accidental offset must exceed the coincidence window"
        )
    validate_impl(impl, "car_from_tags impl")
    centers = accidental_window_centers(
        num_accidental_windows, accidental_offset_s
    )
    a = _ascending(times_a_s)
    b = _ascending(times_b_s)
    if impl == VECTORIZED:
        coincidences, *accidental_counts = _count_windows(
            a, b, window_s, [0.0, *centers]
        )
    else:
        coincidences = _count_sorted(a, b, window_s, 0.0, impl)
        accidental_counts = [
            _count_sorted(a, b, window_s, center, impl) for center in centers
        ]
    return CoincidenceResult(
        coincidences=coincidences,
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
