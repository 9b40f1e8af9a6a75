"""Time-to-digital converter: quantisation and delay histograms.

The experiments record click times with a TDC of finite bin width and
build signal-idler delay histograms from them; both steps live here so the
simulated analysis chain matches the laboratory one.

Delay collection locates every window boundary with one
``np.searchsorted`` call per side.  The original per-start two-pointer
sweep stays next to it as a private reference oracle
(:func:`_collect_delays_loop`), which the equivalence tests hold the
fast path to, delay for delay.

The fast path first drops the clicks that cannot have a partner
(:func:`partner_candidates`, shared with the CAR counter): at
experiment rates fewer than 1 % of clicks have one within a few
hundred nanoseconds, so one merge of the two sorted streams replaces
most of the binary searches.  That merge, like the detector's
dead-time gap scan (:func:`gaps_below`) and its in-place compaction of
the survivors, runs in time blocks of :data:`CLICK_BLOCK` clicks, so
none of them builds a temporary that grows with the streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class TimeToDigitalConverter:
    """A TDC with a fixed bin (resolution) width."""

    bin_width_s: float = 81e-12

    def __post_init__(self) -> None:
        if self.bin_width_s <= 0:
            raise ConfigurationError("bin width must be positive")

    def quantize(self, times_s: np.ndarray) -> np.ndarray:
        """Snap times to the TDC grid (floor convention)."""
        times = np.asarray(times_s, dtype=float)
        return np.floor(times / self.bin_width_s) * self.bin_width_s

    def delay_histogram(
        self,
        start_times_s: np.ndarray,
        stop_times_s: np.ndarray,
        max_delay_s: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of stop-start delays within ±``max_delay_s``.

        Returns ``(bin_centres, counts)``.  All start/stop combinations
        within the window are histogrammed (the standard start-stop
        correlator in multi-stop mode).
        """
        if max_delay_s <= 0:
            raise ConfigurationError("max delay must be positive")
        starts = ascending(start_times_s)
        stops = ascending(stop_times_s)
        n_bins = max(int(round(2.0 * max_delay_s / self.bin_width_s)), 2)
        edges = np.linspace(-max_delay_s, max_delay_s, n_bins + 1)
        delays = collect_delays(starts, stops, max_delay_s)
        counts, _ = np.histogram(delays, bins=edges)
        centres = 0.5 * (edges[:-1] + edges[1:])
        return centres, counts.astype(float)


def collect_delays(
    sorted_starts: np.ndarray,
    sorted_stops: np.ndarray,
    max_delay_s: float,
) -> np.ndarray:
    """All pairwise (stop - start) delays with |delay| <= max_delay_s.

    Both inputs must be sorted ascending.  Every window boundary comes
    from two ``searchsorted`` calls, and the ragged per-start stop ranges
    are flattened with the cumulative-offset trick
    (:func:`range_indices`), so delays come back start-major (ascending
    within each start), exactly as :func:`_collect_delays_loop` returns
    them.
    """
    if max_delay_s <= 0:
        raise ConfigurationError("max delay must be positive")
    starts, stops = partner_candidates(
        np.asarray(sorted_starts, dtype=float),
        np.asarray(sorted_stops, dtype=float),
        max_delay_s,
    )
    lo, hi = window_slices(stops, starts - max_delay_s, starts + max_delay_s)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    return stops[range_indices(lo, counts, total)] - np.repeat(starts, counts)


def window_slices(
    sorted_stops: np.ndarray,
    window_low: np.ndarray,
    window_high: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window ``(lo, hi)`` index bounds into a sorted stop array.

    For each window ``[low_i, high_i]`` (both ends inclusive) the stops
    inside it are ``sorted_stops[lo_i:hi_i]``.  One ``np.searchsorted``
    call per side locates every boundary at once; this is the primitive
    behind the delay collection and window counting.
    """
    lo = np.searchsorted(sorted_stops, window_low, side="left")
    hi = np.searchsorted(sorted_stops, window_high, side="right")
    return lo, np.maximum(hi, lo)


def ascending(times_s: np.ndarray) -> np.ndarray:
    """The stream as a float array in ascending order.

    Detector output is already sorted, so an O(n) check skips the sort.
    """
    times = np.asarray(times_s, dtype=float)
    if times.size > 1 and not np.all(times[1:] >= times[:-1]):
        return np.sort(times)
    return times


# The partner filter probes one start in _PROBE_STRIDE and skips itself
# when more than _DENSE_SHARE of those have a partner: the merge would
# then cost more than it saves.
_PROBE_STRIDE = 64
_DENSE_SHARE = 1 / 16

#: Clicks per stream in one block of the full-stream scans (the partner
#: merge, the dead-time gap scan and the detector's compaction), so their
#: temporaries stay a few MB however long the streams run.
CLICK_BLOCK = 2**16


def partner_candidates(
    starts: np.ndarray, stops: np.ndarray, reach_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """The clicks of two sorted streams that may have a partner in reach.

    Returns order-preserving subsequences of both streams that keep every
    (start, stop) pair whose window comparisons place the stop within
    ``reach_s`` of the start, so the pair kernels give bit-identical
    counts and delays on them.  The streams are merged and every click
    with a merged neighbour in reach is kept.  Dense streams, where a
    strided probe of the starts finds too many partners for that to pay,
    come back unchanged, as do empty start streams.

    The merge runs in time blocks holding at most :data:`CLICK_BLOCK`
    distinct clicks of each stream, each padded with both streams'
    nearest clicks outside it, so every click sees its global merged
    neighbours while no temporary grows with the streams.
    """
    probe = starts[::_PROBE_STRIDE]
    lo, hi = window_slices(stops, probe - reach_s, probe + reach_s)
    if not probe.size or _DENSE_SHARE * probe.size < np.count_nonzero(hi > lo):
        return starts, stops
    # A counted pair passes fl(b - c) against fl(a ± h) (CAR) or b against
    # fl(a ± D) (TDC).  Each rounding moves a value of size at most
    # T + reach (T = max |t|) by at most u = eps/2, so the pair's true gap
    # is at most reach + eps·(T + reach); its merged neighbour is no
    # farther, and diff adds a relative u.  A slack of 4·eps·(T + reach)
    # covers both with room for rounding the threshold itself.
    ends = np.concatenate([starts[[0, -1]], stops[[0, -1]] if stops.size else []])
    scale = max(-ends.min(), ends.max()) + reach_s
    threshold = reach_s + 4.0 * np.finfo(float).eps * scale
    every = slice(CLICK_BLOCK, None, CLICK_BLOCK)
    edges = np.union1d(starts[every], stops[every])
    start_cuts = [0, *np.searchsorted(starts, edges), starts.size]
    stop_cuts = [0, *np.searchsorted(stops, edges), stops.size]
    kept_starts, kept_stops = [], []
    for s0, s1, p0, p1 in zip(start_cuts, start_cuts[1:], stop_cuts, stop_cuts[1:]):
        # Both streams' blocks span [edge, next edge) and the pads lie
        # outside it, so the block's clicks take exactly their own flags.
        values = _flagged_values(
            starts[max(s0 - 1, 0):s1 + 1], stops[max(p0 - 1, 0):p1 + 1], threshold
        )
        kept_starts.append(_with_values(starts[s0:s1], values))
        kept_stops.append(_with_values(stops[p0:p1], values))
    return np.concatenate(kept_starts), np.concatenate(kept_stops)


def _flagged_values(
    starts: np.ndarray, stops: np.ndarray, threshold: float
) -> np.ndarray:
    """The distinct values of the merged streams with a merged neighbour
    within ``threshold``."""
    merged = np.concatenate([starts, stops])
    merged.sort(kind="stable")  # timsort: one merge of two ascending runs
    close = np.diff(merged) <= threshold
    flagged = np.zeros(merged.size, dtype=bool)
    flagged[:-1] = close
    flagged[1:] |= close
    # A start equal to a flagged value shares that value's partners, so
    # mapping values back (duplicates and cross-stream ties included)
    # keeps every candidate.
    return np.unique(merged[flagged])


def _with_values(sorted_times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The elements equal to any of the sorted, distinct ``values``."""
    lo, hi = window_slices(sorted_times, values, values)
    counts = hi - lo
    return sorted_times[range_indices(lo, counts, int(counts.sum()))]


def gaps_below(times: np.ndarray, limit: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (``times.size - 1`` bools) with ``np.diff(times) <
    limit``, one block of :data:`CLICK_BLOCK` gaps at a time."""
    for lo in range(0, times.size - 1, CLICK_BLOCK):
        hi = min(lo + CLICK_BLOCK, times.size - 1)
        np.less(np.diff(times[lo:hi + 1]), limit, out=out[lo:hi])
    return out


def _collect_delays_loop(
    sorted_starts: np.ndarray, sorted_stops: np.ndarray, max_delay_s: float
) -> np.ndarray:
    """Reference oracle of :func:`collect_delays`: the original per-start
    two-pointer sweep."""
    delays: list[np.ndarray] = []
    lo = 0
    n_stops = sorted_stops.size
    for start in sorted_starts:
        while lo < n_stops and sorted_stops[lo] < start - max_delay_s:
            lo += 1
        hi = lo
        while hi < n_stops and sorted_stops[hi] <= start + max_delay_s:
            hi += 1
        if hi > lo:
            delays.append(sorted_stops[lo:hi] - start)
    if not delays:
        return np.empty(0)
    return np.concatenate(delays)


def range_indices(lo: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """The ranges ``[lo_i, lo_i + counts_i)`` concatenated into one index
    array (``total`` is ``counts.sum()``)."""
    cumulative = np.cumsum(counts)
    # Index k of the flat output maps to stop index lo[i] + (k - offset[i])
    # where i is the window k falls in and offset[i] the windows before it.
    return np.arange(total) + np.repeat(lo - (cumulative - counts), counts)
