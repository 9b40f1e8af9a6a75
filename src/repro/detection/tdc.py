"""Time-to-digital converter: quantisation and delay histograms.

The experiments record click times with a TDC of finite bin width and
build signal-idler delay histograms from them; both steps live here so the
simulated analysis chain matches the laboratory one.

Delay collection ships three implementations selected with ``impl``:
the original per-start two-pointer sweep (``"loop"``, kept as the
reference oracle), a ``np.searchsorted``-based batch path
(``"vectorized"``, the default) that locates every window boundary in
one vectorized call, and a ``"chunked"`` path that partitions the
start array into per-core chunks, runs the vectorized collection per
chunk through the shared pool, and concatenates — start-major order
makes the reassembly order-preserving.  All produce bit-identical
delay arrays for the same inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.chunking import chunk_ranges, map_chunks
from repro.utils.dispatch import CHUNKED, LOOP, validate_impl


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
        impl: str = "vectorized",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Histogram of stop-start delays within ±``max_delay_s``.

        Returns ``(bin_centres, counts)``.  All start/stop combinations
        within the window are histogrammed (the standard start-stop
        correlator in multi-stop mode); ``impl`` selects the delay
        collection implementation (see :func:`collect_delays`).
        """
        if max_delay_s <= 0:
            raise ConfigurationError("max delay must be positive")
        starts = np.sort(np.asarray(start_times_s, dtype=float))
        stops = np.sort(np.asarray(stop_times_s, dtype=float))
        n_bins = max(int(round(2.0 * max_delay_s / self.bin_width_s)), 2)
        edges = np.linspace(-max_delay_s, max_delay_s, n_bins + 1)
        delays = collect_delays(starts, stops, max_delay_s, impl=impl)
        counts, _ = np.histogram(delays, bins=edges)
        centres = 0.5 * (edges[:-1] + edges[1:])
        return centres, counts.astype(float)


def collect_delays(
    sorted_starts: np.ndarray,
    sorted_stops: np.ndarray,
    max_delay_s: float,
    impl: str = "vectorized",
) -> np.ndarray:
    """All pairwise (stop - start) delays with |delay| <= max_delay_s.

    Both inputs must be sorted ascending.  Delays come back start-major
    (ascending within each start), identically for both implementations.
    """
    if max_delay_s <= 0:
        raise ConfigurationError("max delay must be positive")
    impl = validate_impl(impl, "collect_delays impl")
    if impl == LOOP:
        return _collect_delays_loop(sorted_starts, sorted_stops, max_delay_s)
    if impl == CHUNKED:
        return _collect_delays_chunked(
            sorted_starts, sorted_stops, max_delay_s
        )
    return _collect_delays_vectorized(sorted_starts, sorted_stops, max_delay_s)


def window_slices(
    sorted_stops: np.ndarray,
    window_low: np.ndarray,
    window_high: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window ``(lo, hi)`` index bounds into a sorted stop array.

    For each window ``[low_i, high_i]`` (both ends inclusive) the stops
    inside it are ``sorted_stops[lo_i:hi_i]``.  One ``np.searchsorted``
    call per side locates every boundary at once; this is the primitive
    behind the vectorized delay collection and window counting.
    """
    lo = np.searchsorted(sorted_stops, window_low, side="left")
    hi = np.searchsorted(sorted_stops, window_high, side="right")
    return lo, np.maximum(hi, lo)


def _collect_delays_loop(
    sorted_starts: np.ndarray, sorted_stops: np.ndarray, max_delay_s: float
) -> np.ndarray:
    """Reference oracle: the original per-start two-pointer sweep."""
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


def _collect_delays_vectorized(
    sorted_starts: np.ndarray, sorted_stops: np.ndarray, max_delay_s: float
) -> np.ndarray:
    """Batch path: every window boundary from two ``searchsorted`` calls.

    The ragged per-start stop ranges are flattened with the standard
    cumulative-offset trick, so the delay array comes out in exactly the
    start-major order of the loop oracle.
    """
    starts = np.asarray(sorted_starts, dtype=float)
    stops = np.asarray(sorted_stops, dtype=float)
    lo, hi = window_slices(stops, starts - max_delay_s, starts + max_delay_s)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    return stops[range_indices(lo, counts, total)] - np.repeat(starts, counts)


def range_indices(lo: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """The ranges ``[lo_i, lo_i + counts_i)`` concatenated into one index
    array (``total`` is ``counts.sum()``)."""
    cumulative = np.cumsum(counts)
    # Index k of the flat output maps to stop index lo[i] + (k - offset[i])
    # where i is the window k falls in and offset[i] the windows before it.
    return np.arange(total) + np.repeat(lo - (cumulative - counts), counts)


def _collect_delays_chunked(
    sorted_starts: np.ndarray, sorted_stops: np.ndarray, max_delay_s: float
) -> np.ndarray:
    """Chunk-parallel path: per-core start chunks, vectorized per chunk.

    Each chunk's delays are exactly the oracle's delays for those
    starts (start-major ordering is a per-start property), so plain
    concatenation reproduces the full start-major array bit for bit.
    """
    starts = np.asarray(sorted_starts, dtype=float)
    stops = np.asarray(sorted_stops, dtype=float)
    ranges = chunk_ranges(starts.size)
    if len(ranges) <= 1:
        return _collect_delays_vectorized(starts, stops, max_delay_s)
    pieces = map_chunks(
        _collect_delays_vectorized,
        [(starts[lo:hi], stops, max_delay_s) for lo, hi in ranges],
    )
    return np.concatenate(pieces) if pieces else np.empty(0)
