"""Coincidence counting and the coincidence-to-accidental ratio (CAR).

The CAR is the paper's workhorse figure of merit: coincidences in a window
centred on zero delay, divided by the accidental level measured in offset
windows.  Section II reports CAR between 12.8 and 32.4 at 15 mW;
Section III reports CAR ≈ 10 at 2 mW for the type-II source.

Counting finds window boundaries with ``np.searchsorted``.  The CAR is
measured on a set of streams at once (:func:`car_matrix`, every start
stream against every stop stream, as in the coincidence matrix of E1;
:func:`car_from_tags` is its one-cell case).  One partner filter over
the whole set keeps only the clicks with a partner in reach of any
window (:func:`~repro.detection.tdc.partner_candidates`); each start
stream then gathers every pair inside the union of its coincidence and
accidental windows against the merged, labelled stop candidates with one
pair of ``np.searchsorted`` calls, and each window of each cell is
counted on that small candidate set with the same float comparisons a
one-window count uses.  The original per-window, per-start sweep stays
as private reference oracles (:func:`_count_window_loop`,
:func:`_car_from_tags_loop`); the equivalence tests hold the counts
here to them exactly.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.detection.tdc import _collect_delays_loop, ascending
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


@dataclasses.dataclass(frozen=True)
class CoincidenceResult:
    """Outcome of a CAR measurement on one channel pair.

    ``accidentals_mean`` is the mean count of ``num_accidental_windows``
    offset windows.
    """

    coincidences: int
    accidentals_mean: float
    duration_s: float
    window_s: float
    num_accidental_windows: int = 1

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
        """One-sigma error on the CAR from Poisson statistics.

        The accidental mean is a summed count over the offset windows
        divided by their number ``n``, so its error is √(n·Ā)/n.
        """
        if self.accidentals_mean <= 0:
            return math.inf
        n = self.num_accidental_windows
        return stats.ratio_error(
            float(self.coincidences),
            math.sqrt(max(self.coincidences, 1)),
            self.accidentals_mean,
            math.sqrt(max(n * self.accidentals_mean, 1.0)) / n,
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


def car_reach(
    window_s: float = 2.5e-9,
    num_accidental_windows: int = 10,
    accidental_offset_s: float = 50e-9,
) -> float:
    """The widest delay a CAR measurement's windows reach,
    ``max |centre| + window/2``: pairs farther apart are never counted."""
    centers = accidental_window_centers(num_accidental_windows, accidental_offset_s)
    return max(abs(center) for center in centers) + window_s / 2.0


def car_matrix(
    starts: Sequence[np.ndarray],
    stops: Sequence[np.ndarray],
    duration_s: float,
    window_s: float = 2.5e-9,
    num_accidental_windows: int = 10,
    accidental_offset_s: float = 50e-9,
) -> list[list[CoincidenceResult]]:
    """The CAR of every (start stream, stop stream) pair, ``[m][n]``.

    Each cell is measured exactly as the experiment does: coincidences
    in a window centred at zero delay, and the accidental level as the
    mean count over ``num_accidental_windows`` windows offset far outside
    the biphoton correlation time (alternating sides to cancel slow
    drifts).

    One partner filter over all the streams keeps the clicks that may
    have a partner within the widest window's reach (:func:`car_reach`,
    :func:`partner_candidates`).  The stop candidates are merged into
    one labelled, sorted array.  Rounding is monotone, so ``b - c`` only
    shrinks as ``c`` grows: a pair inside any window lies at or above the
    lowest window's lower edge and at or below the highest window's
    upper edge, so one ``searchsorted`` pass per
    start stream gathers every pair of every cell in its row.  The pairs
    are flattened as in the TDC delay collection (:func:`range_indices`),
    and each window is counted on them with the exact comparisons of
    :func:`count_coincidences`, split by stop stream with ``np.bincount``
    — so every count equals the per-window, per-pair one.
    """
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if window_s <= 0:
        raise ConfigurationError("window must be positive")
    if accidental_offset_s <= window_s:
        raise ConfigurationError(
            "accidental offset must exceed the coincidence window"
        )
    if not starts or not stops:
        raise ConfigurationError("need at least one start and one stop stream")
    centers = [
        0.0, *accidental_window_centers(num_accidental_windows, accidental_offset_s)
    ]
    half = window_s / 2.0
    low_center, high_center = min(centers), max(centers)
    candidates = partner_candidates(
        [ascending(times) for times in (*starts, *stops)],
        car_reach(window_s, num_accidental_windows, accidental_offset_s),
    )
    kept_starts, kept_stops = candidates[: len(starts)], candidates[len(starts) :]
    stop_times, labels = _labelled_merge(kept_stops)
    counts = np.zeros((len(starts), len(stops), len(centers)), dtype=np.int64)
    for row, a in zip(counts, kept_starts):
        lo = np.searchsorted(stop_times - low_center, a - half, side="left")
        hi = np.searchsorted(stop_times - high_center, a + half, side="right")
        per_start = hi - lo
        total = int(per_start.sum())
        if total == 0:
            continue
        pairs = range_indices(lo, per_start, total)
        pair_b, pair_label = stop_times[pairs], labels[pairs]
        del pairs  # as large as the stream on dense sets: free it early
        pair_a = np.repeat(a, per_start)
        window_low = pair_a - half
        window_high = pair_a + half
        for k, center in enumerate(centers):
            shifted = pair_b - center if center != 0.0 else pair_b
            inside = (shifted >= window_low) & (shifted <= window_high)
            row[:, k] = np.bincount(pair_label[inside], minlength=len(stops))
    return [
        [
            CoincidenceResult(
                coincidences=int(cell[0]),
                accidentals_mean=float(np.mean(cell[1:])),
                duration_s=duration_s,
                window_s=window_s,
                num_accidental_windows=num_accidental_windows,
            )
            for cell in row
        ]
        for row in counts
    ]


def _labelled_merge(streams: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted streams merged into one sorted array, with each click's
    stream index as a one-byte label (wider past 256 streams).

    A single stream is returned as it is, with an all-zero label view, so
    a one-pair measurement copies nothing stream-sized.
    """
    dtype = np.min_scalar_type(len(streams) - 1)
    if len(streams) == 1:
        return streams[0], np.broadcast_to(np.zeros(1, dtype), streams[0].shape)
    merged = np.concatenate(streams)
    order = np.argsort(merged)
    labels = np.repeat(np.arange(len(streams), dtype=dtype), [s.size for s in streams])
    return merged[order], labels[order]


def car_from_tags(
    times_a_s: np.ndarray,
    times_b_s: np.ndarray,
    duration_s: float,
    window_s: float = 2.5e-9,
    num_accidental_windows: int = 10,
    accidental_offset_s: float = 50e-9,
) -> CoincidenceResult:
    """Measure coincidences and accidentals on one channel pair: the
    one-cell :func:`car_matrix`."""
    return car_matrix(
        [times_a_s],
        [times_b_s],
        duration_s,
        window_s,
        num_accidental_windows,
        accidental_offset_s,
    )[0][0]


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
        num_accidental_windows=num_accidental_windows,
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
