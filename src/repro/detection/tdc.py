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
experiment rates fewer than 1 % of a pair's clicks have one within a
few hundred nanoseconds, so one merge of the sorted streams replaces
most of the binary searches.  The filter works on a set of streams, two
for a delay histogram and as many as a coincidence matrix correlates,
with one merge for the whole set.  That merge, like the detector's
dead-time gap scan (:func:`gaps_below`) and its in-place compaction of
the survivors, runs in time blocks of at most :data:`CLICK_BLOCK`
clicks per stream, so none of them builds a temporary that grows with
the streams.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

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
        [np.asarray(times, dtype=float) for times in (sorted_starts, sorted_stops)],
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


# The partner filter probes one click in _PROBE_STRIDE of the first
# stream and skips itself when those find a partner in more than
# _DENSE_SHARE of the other streams on average: the merge would then cost
# more than it saves.  It maps its flags back by an indirect sort once the
# number of streams times the probe's partnered share exceeds
# _ORDER_SHARE (measured crossover 0.06-0.09 on 2-10 uniform streams).
_PROBE_STRIDE = 64
_DENSE_SHARE = 1 / 16
_ORDER_SHARE = 1 / 12

#: Clicks per stream in one block of the full-stream scans (the partner
#: merge, the dead-time gap scan and the detector's compaction), so their
#: temporaries stay a few MB however long the streams run.  A partner
#: merge of N streams cuts each every ``2 * CLICK_BLOCK // N`` clicks, so
#: its blocks hold no more than a two-stream block does.
CLICK_BLOCK = 2**16


def partner_candidates(
    streams: Sequence[np.ndarray], reach_s: float
) -> list[np.ndarray]:
    """The clicks of a set of sorted streams that may have a partner in reach.

    Returns an order-preserving subsequence of each stream that keeps
    every pair of clicks, from any two of the streams, whose window
    comparisons place them within ``reach_s`` of each other, so the pair
    kernels give bit-identical counts and delays on them.  All the
    streams are merged once and every click with a merged neighbour in
    reach is kept; a neighbour from any stream only brings the nearest
    one closer, so the kept set is a superset of each pair's own.  Dense
    sets, where a strided probe of the first stream finds too many
    partners for the merge to pay, come back unchanged, as do sets whose
    first stream is empty.

    The merge runs in time blocks holding at most ``2 * CLICK_BLOCK``
    distinct clicks in all, each padded with every stream's nearest
    clicks outside it, so every click sees its global merged neighbours
    while no temporary grows with the streams.  The flags go back to
    their streams by value while few clicks are flagged, and by the
    merge's own order once the probe expects many per stream.
    """
    streams = list(streams)
    probe = streams[0][::_PROBE_STRIDE]
    hits = 0
    for other in streams[1:]:
        lo, hi = window_slices(other, probe - reach_s, probe + reach_s)
        hits += np.count_nonzero(hi > lo)
    if not probe.size or hits > _DENSE_SHARE * probe.size * (len(streams) - 1):
        return streams
    # A counted pair passes fl(b - c) against fl(a ± h) (CAR) or b against
    # fl(a ± D) (TDC).  Each rounding moves a value of size at most
    # T + reach (T = max |t|) by at most u = eps/2, so the pair's true gap
    # is at most reach + eps·(T + reach); its merged neighbour is no
    # farther, and diff adds a relative u.  A slack of 4·eps·(T + reach)
    # covers both with room for rounding the threshold itself.
    ends = np.concatenate([s[[0, -1]] for s in streams if s.size])
    scale = max(-ends.min(), ends.max()) + reach_s
    threshold = reach_s + 4.0 * np.finfo(float).eps * scale
    # Mapping back by value searches every stream for every flagged value,
    # about streams × flagged searches; the indirect sort costs about one
    # more sort of the block instead.
    keep_flagged = (
        _kept_by_order
        if len(streams) * hits > _ORDER_SHARE * probe.size
        else _kept_by_value
    )
    stride = max(2 * CLICK_BLOCK // len(streams), 1)
    every = slice(stride, None, stride)
    edges = np.unique(np.concatenate([s[every] for s in streams]))
    cuts = [[0, *np.searchsorted(s, edges), s.size] for s in streams]
    kept: list[list[np.ndarray]] = [[] for _ in streams]
    for block in range(edges.size + 1):
        # Every stream's block spans [edge, next edge) and the pads lie
        # outside it, so the block's clicks take exactly their own flags.
        bounds = [(cut[block], cut[block + 1]) for cut in cuts]
        padded = [s[max(lo - 1, 0):hi + 1] for s, (lo, hi) in zip(streams, bounds)]
        # Where each stream's own clicks sit in its padded block.
        cores = [(int(lo > 0), hi - lo) for lo, hi in bounds]
        for parts, core in zip(kept, keep_flagged(padded, cores, threshold)):
            parts.append(core)
    return [np.concatenate(parts) for parts in kept]


def _near_neighbour(merged: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of the sorted ``merged`` values with a neighbour within
    ``threshold``."""
    close = np.diff(merged) <= threshold
    flagged = np.zeros(merged.size, dtype=bool)
    flagged[:-1] = close
    flagged[1:] |= close
    return flagged


def _kept_by_value(
    padded: list[np.ndarray], cores: list[tuple[int, int]], threshold: float
) -> list[np.ndarray]:
    """The clicks of each block's core, ``padded[i][start:start + size]``
    for ``(start, size) = cores[i]``, equal to a flagged value of the
    merged blocks."""
    merged = np.concatenate(padded)
    merged.sort()
    # A click equal to a flagged value shares that value's partners, so
    # mapping values back (duplicates and cross-stream ties included)
    # keeps every candidate.
    values = np.unique(merged[_near_neighbour(merged, threshold)])
    kept = []
    for pad, (start, size) in zip(padded, cores):
        core = pad[start:start + size]
        lo, hi = window_slices(core, values, values)
        counts = hi - lo
        kept.append(core[range_indices(lo, counts, int(counts.sum()))])
    return kept


def _kept_by_order(
    padded: list[np.ndarray], cores: list[tuple[int, int]], threshold: float
) -> list[np.ndarray]:
    """The flagged clicks of each block's core (as in
    :func:`_kept_by_value`), found through the merge's permutation.

    Equal clicks are adjacent in the merge with a zero gap, so each is
    flagged itself and this keeps what :func:`_kept_by_value` keeps.
    """
    joined = np.concatenate(padded)
    order = np.argsort(joined)
    joined = joined[order]
    flagged = np.zeros(joined.size, dtype=bool)
    flagged[order[_near_neighbour(joined, threshold)]] = True
    kept = []
    offset = 0
    for pad, (start, size) in zip(padded, cores):
        flags = flagged[offset + start:offset + start + size]
        kept.append(pad[start:start + size][flags])
        offset += pad.size
    return kept


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
