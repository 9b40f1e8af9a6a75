"""Loop-vs-vectorized equivalence: the batched core against its oracle.

Every hot path keeps its original Python-loop implementation as a
private reference oracle next to it (``_collect_delays_loop``,
``_car_from_tags_loop``, ``_fringe_visibility_error_loop``, ...); these
tests prove that the vectorized fast path returns *identical* results
for identical :class:`RandomStream` seeds — exact integer counts and
bit-identical arrays wherever the implementations share float
operations, and tight (BLAS-rounding-level) agreement for the one
least-squares summary the batched bootstrap computes differently.

Hypothesis drives the detection-layer cases over adversarial tag
streams (duplicates, bursts, empty streams, boundary-straddling
windows); the timebin cases replay full fringe scans.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection import spd, tdc
from repro.detection.coincidence import (
    _car_from_tags_loop,
    _count_window_loop,
    accidental_window_centers,
    car_from_tags,
    car_matrix,
    count_coincidences,
)
from repro.detection.spd import _apply_dead_time, _dead_time_loop
from repro.detection.tdc import (
    TimeToDigitalConverter,
    _collect_delays_loop,
    ascending,
    collect_delays,
    gaps_below,
    partner_candidates,
)
from repro.errors import ConfigurationError
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin import fringes
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.fringes import FringeScan, _fringe_visibility_error_loop
from repro.timebin.stabilization import PhaseController
from repro.utils.fitting import (
    fit_fringe,
    fit_fringe_harmonics,
    fit_fringe_harmonics_many,
    fit_fringe_many,
)
from repro.utils.rng import RandomStream

#: Strategy: short, possibly duplicated, unsorted click-time lists.
click_times = st.lists(
    st.floats(min_value=-5.0, max_value=5.0,
              allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=60,
)

#: Strategy: positive window / delay widths spanning five decades.
windows = st.floats(min_value=1e-4, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def _oracle_histogram(times_a_s, times_b_s, bin_width_s, max_delay_s):
    """(centres, counts) of ``np.histogram`` over the loop oracle's
    delays, on the bins the delay histograms use."""
    n_bins = max(int(round(2.0 * max_delay_s / bin_width_s)), 2)
    edges = np.linspace(-max_delay_s, max_delay_s, n_bins + 1)
    delays = _collect_delays_loop(
        ascending(times_a_s), ascending(times_b_s), max_delay_s
    )
    counts, _ = np.histogram(delays, bins=edges)
    return 0.5 * (edges[:-1] + edges[1:]), counts.astype(float)


class TestDetectionEquivalence:
    """TDC and coincidence paths: exact equality on adversarial streams."""

    @given(starts=click_times, stops=click_times, max_delay=windows)
    @settings(max_examples=150, deadline=None)
    def test_collect_delays_identical(self, starts, stops, max_delay):
        a = np.sort(np.asarray(starts, dtype=float))
        b = np.sort(np.asarray(stops, dtype=float))
        loop = _collect_delays_loop(a, b, max_delay)
        fast = collect_delays(a, b, max_delay)
        assert np.array_equal(loop, fast)

    @given(
        starts=click_times,
        stops=click_times,
        window=windows,
        center=st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_coincidences_identical(self, starts, stops, window, center):
        a = np.asarray(starts, dtype=float)
        b = np.asarray(stops, dtype=float)
        loop = _count_window_loop(ascending(a), ascending(b), window, center)
        fast = count_coincidences(a, b, window, center)
        assert loop == fast

    @given(starts=click_times, stops=click_times, max_delay=windows)
    @settings(max_examples=60, deadline=None)
    def test_delay_histogram_identical(self, starts, stops, max_delay):
        tdc = TimeToDigitalConverter(bin_width_s=max_delay / 16.0)
        a = np.asarray(starts, dtype=float)
        b = np.asarray(stops, dtype=float)
        loop = _oracle_histogram(a, b, tdc.bin_width_s, max_delay)
        fast = tdc.delay_histogram(a, b, max_delay)
        assert np.array_equal(loop[0], fast[0])
        assert np.array_equal(loop[1], fast[1])

    def test_car_from_tags_identical(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 30.0, 30_000))
        b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
        loop = _car_from_tags_loop(a, b, 30.0)
        fast = car_from_tags(a, b, 30.0)
        assert loop == fast

    @given(
        starts=click_times,
        stops=click_times,
        window=windows,
        offset_factor=st.floats(min_value=1.01, max_value=4.0),
        num_windows=st.integers(min_value=1, max_value=11),
        sort_starts=st.booleans(),
        sort_stops=st.booleans(),
        duplicate=st.booleans(),
        edges=st.lists(
            st.tuples(st.integers(0, 59), st.integers(0, 11),
                      st.sampled_from([-0.5, 0.5])),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_car_from_tags_identical_on_adversarial_streams(
        self, starts, stops, window, offset_factor, num_windows,
        sort_starts, sort_stops, duplicate, edges,
    ):
        offset = window * offset_factor
        centers = [0.0, *accidental_window_centers(num_windows, offset)]
        a = np.asarray(starts, dtype=float)
        if duplicate:
            a = np.concatenate([a, a[: a.size // 2]])
        # Stops placed on the nominal edge of a coincidence or accidental
        # window, where rounding decides the count.
        on_edges = [
            a[i % a.size] + centers[k % len(centers)] + side * window
            for i, k, side in edges
            if a.size
        ]
        b = np.asarray(stops + on_edges, dtype=float)
        if sort_starts:
            a = np.sort(a)
        if sort_stops:
            b = np.sort(b)
        args = (a, b, 1.0, window, num_windows, offset)
        assert car_from_tags(*args) == _car_from_tags_loop(*args)

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=80,
        ),
        grid=st.sampled_from([None, 1e-3, 1e-2]),
        dead_time=st.sampled_from([1e-3, 3e-3, 1e-2, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    # t[2] - t[0] rounds up to the dead time although t[2] < t[0] + dead
    # time, so searchsorted overshoots and must step back.
    @example(
        times=[0.0006841842638257823, 0.0011841842638257823,
               0.0016841842638257822],
        grid=None,
        dead_time=1e-3,
    )
    def test_dead_time_jump_identical(self, times, grid, dead_time):
        # Grid-snapped times put gaps on (or one ulp off) the dead time.
        values = np.asarray(times, dtype=float)
        if grid is not None:
            values = np.round(values / grid) * grid
        values = np.sort(values)
        assert np.array_equal(
            _apply_dead_time(values, dead_time),
            _dead_time_loop(values, dead_time),
        )

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=80,
        ),
        grid=st.sampled_from([None, 1e-3, 1e-2]),
        dead_time=st.sampled_from([1e-3, 3e-2, 0.1, 0.3]),
        min_vector_runs=st.sampled_from([1, 2, 4, 10**9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_dead_time_single_run_hops_identical(
        self, times, grid, dead_time, min_vector_runs
    ):
        # 1 hops every run vectorised to its end; 10**9 follows each run
        # on its own from the start; 2 and 4 switch partway.
        values = np.asarray(times, dtype=float)
        if grid is not None:
            values = np.round(values / grid) * grid
        values = np.sort(values)
        with mock.patch.object(spd, "_MIN_VECTOR_RUNS", min_vector_runs):
            kept = _apply_dead_time(values, dead_time)
        assert np.array_equal(kept, _dead_time_loop(values, dead_time))

    @pytest.mark.parametrize(
        "label, size, duration_s, dead_time_s, grid_s",
        [
            ("saturated", 300_000, 1.5, 50e-6, None),
            ("sparse", 250_000, 60.0, 10e-6, None),
            ("grid", 250_000, 2.5, 10e-6, 1e-6),
        ],
    )
    def test_dead_time_large_stream_identical(
        self, rng, label, size, duration_s, dead_time_s, grid_s
    ):
        # Streams of many gap-scan blocks: one long blocked run
        # (saturated), short runs (sparse) and gaps on the dead time (grid).
        times = rng.child(label).uniform(0.0, duration_s, size)
        if grid_s is not None:
            times = np.round(times / grid_s) * grid_s
        times = np.sort(times)
        assert np.array_equal(
            _apply_dead_time(times, dead_time_s),
            _dead_time_loop(times, dead_time_s),
        )

    def test_delay_histogram_large(self, rng):
        a = rng.child("a").uniform(0.0, 5.0, 20_000)
        b = rng.child("b").uniform(0.0, 5.0, 20_000)
        loop = _oracle_histogram(a, b, 1e-9, 40e-9)
        fast = TimeToDigitalConverter(1e-9).delay_histogram(a, b, 40e-9)
        assert np.array_equal(loop[0], fast[0])
        assert np.array_equal(loop[1], fast[1])

    def test_unknown_impl_rejected(self):
        # The oracles are private functions, not a driver override.
        from repro.experiments.registry import run_experiment

        unknown = r"does not accept parameter\(s\) \['impl'\]"
        with pytest.raises(ConfigurationError, match=unknown):
            run_experiment("E7", seed=1, quick=True, params={"impl": "loop"})


#: Starts per stream in the sparse-filter cases: over a hundred anchors.
_SPARSE_STARTS = 2048


def _sparse_streams(seed, origin_s, reach_s, edge_offsets_s):
    """Sorted (starts, stops) that :func:`partner_candidates` filters.

    Independent clicks ~1000 reaches apart, with in-stream duplicates.
    Partners go only to anchor starts, which the strided probe skips:
    each anchor gets one stop, either equal to it (a cross-stream tie)
    or on ``anchor + offset`` or one ulp either side, cycling through
    the offsets.  One stop per anchor keeps the pair's own gap the only
    thing that can flag it, so a slack too small to cover rounding
    loses pairs that the oracle counts.
    """
    rng = RandomStream(seed, "sparse-filter")
    span = 1000.0 * reach_s * _SPARSE_STARTS
    a = origin_s + rng.child("a").uniform(0.0, span, _SPARSE_STARTS)
    b = origin_s + rng.child("b").uniform(0.0, span, _SPARSE_STARTS)
    a = np.sort(np.concatenate([a, a[::101]]))
    anchors = a[8::16]
    ties = anchors[::8]
    edges = np.delete(anchors, np.s_[::8])
    offsets = np.resize(np.repeat(edge_offsets_s, 3), edges.size)
    steps = np.resize([-np.inf, np.nan, np.inf], edges.size)
    edge_stops = edges + offsets
    moved = ~np.isnan(steps)
    edge_stops[moved] = np.nextafter(edge_stops[moved], steps[moved])
    b = np.sort(np.concatenate([b, b[::103], ties, edge_stops]))
    return a, b


class TestSparseFilterEquivalence:
    """The sparse-first pair filter against the loop oracle.

    These streams are long and sparse enough to take the filtered branch
    of :func:`partner_candidates` (asserted), with times near 600 s where
    an ulp is 1.1e-13 s and stops on every window edge, where the filter's
    rounding slack decides whether a pair survives.
    """

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        origin=st.sampled_from([0.0, 600.0]),
        window=st.floats(min_value=1e-10, max_value=5e-9),
        offset_factor=st.floats(min_value=1.01, max_value=40.0),
        num_windows=st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=30, deadline=None)
    def test_car_from_tags_identical(
        self, seed, origin, window, offset_factor, num_windows
    ):
        offset = window * offset_factor
        centers = [0.0, *accidental_window_centers(num_windows, offset)]
        half = window / 2.0
        reach = max(abs(c) for c in centers) + half
        edges = [c + side for c in centers for side in (-half, half)]
        a, b = _sparse_streams(seed, origin, reach, edges)
        assert partner_candidates([a, b], reach)[0].size < a.size
        args = (a, b, 1.0, window, num_windows, offset)
        assert car_from_tags(*args) == _car_from_tags_loop(*args)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        origin=st.sampled_from([0.0, 600.0]),
        max_delay=st.floats(min_value=1e-10, max_value=1e-6),
    )
    @settings(max_examples=30, deadline=None)
    def test_collect_delays_identical(self, seed, origin, max_delay):
        a, b = _sparse_streams(seed, origin, max_delay, [-max_delay, max_delay])
        assert partner_candidates([a, b], max_delay)[0].size < a.size
        loop = _collect_delays_loop(a, b, max_delay)
        fast = collect_delays(a, b, max_delay)
        assert loop.size > 0
        assert np.array_equal(loop, fast)

    @pytest.mark.parametrize("n_starts, n_stops", [
        (0, 0), (0, 1), (1, 0), (1, 1),
        (0, None), (1, None), (None, 0), (None, 1),
    ])
    def test_empty_and_single_click_streams(self, n_starts, n_stops):
        a, b = _sparse_streams(5, 600.0, 2.5e-7, [0.0])
        a = a if n_starts is None else a[:n_starts]
        b = b if n_stops is None else b[:n_stops]
        assert np.array_equal(
            collect_delays(a, b, 2.5e-7), _collect_delays_loop(a, b, 2.5e-7)
        )
        args = (a, b, 1.0, 2.5e-9, 10, 5e-8)
        assert car_from_tags(*args) == _car_from_tags_loop(*args)

    def test_dense_streams_skip_the_filter(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 2.0, 4000))
        b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
        kept_a, kept_b = partner_candidates([a, b], 2.5e-7)
        assert kept_a is a and kept_b is b
        assert np.array_equal(
            collect_delays(a, b, 2.5e-7), _collect_delays_loop(a, b, 2.5e-7)
        )
        assert car_from_tags(a, b, 2.0) == _car_from_tags_loop(a, b, 2.0)


def _loop_matrix(starts, stops, *args):
    """Every cell of a CAR matrix from the loop oracle, one pair at a time."""
    return [[_car_from_tags_loop(a, b, *args) for b in stops] for a in starts]


class TestCarMatrixEquivalence:
    """Every cell of :func:`car_matrix` against the one-pair loop oracle,
    on 1x1, 1x3 and 5x5 sets."""

    @given(
        shape=st.sampled_from([(1, 1), (1, 3), (5, 5)]),
        streams=st.lists(click_times, min_size=10, max_size=10),
        ties=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 59)),
            max_size=8,
        ),
        window=windows,
        offset_factor=st.floats(min_value=1.01, max_value=4.0),
        num_windows=st.integers(min_value=1, max_value=11),
    )
    @settings(max_examples=100, deadline=None)
    def test_cells_match_loop_oracle(
        self, shape, streams, ties, window, offset_factor, num_windows
    ):
        m, n = shape
        sets = [np.asarray(times, dtype=float) for times in streams[: m + n]]
        # Cross-stream ties: clicks copied from one stream into another.
        for source, target, index in ties:
            source, target = source % (m + n), target % (m + n)
            if sets[source].size:
                tie = sets[source][index % sets[source].size]
                sets[target] = np.append(sets[target], tie)
        args = (1.0, window, num_windows, window * offset_factor)
        starts, stops = sets[:m], sets[m:]
        assert car_matrix(starts, stops, *args) == _loop_matrix(starts, stops, *args)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (5, 5)])
    @pytest.mark.parametrize("case", ["ties", "empty", "single"])
    def test_sparse_sets_match_loop_oracle(self, shape, case):
        m, n = shape
        pairs = [_sparse_streams(11 + k, 600.0, 2.5e-7, [0.0]) for k in range(5)]
        starts = [a for a, _ in pairs][:m]
        stops = [b for _, b in pairs][:n]
        if case == "ties":
            # Clicks shared across streams of the set, not only within a pair.
            stops[-1] = np.sort(np.concatenate([stops[-1], starts[0][::499]]))
            starts[-1] = np.sort(np.concatenate([starts[-1], stops[0][::491]]))
        elif case == "empty":
            stops[-1] = stops[-1][:0]
            starts[-1] = starts[-1][:0] if m > 1 else starts[-1]
        else:
            stops[0] = stops[0][5:6]
            starts[-1] = starts[-1][7:8] if m > 1 else starts[-1]
        assert partner_candidates([*starts, *stops], 2.5e-7)[0].size < starts[0].size
        args = (1.0, 2.5e-9, 10, 5e-8)
        assert car_matrix(starts, stops, *args) == _loop_matrix(starts, stops, *args)

    def test_dense_set_skips_the_filter(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 0.5, 1000))
        sets = [
            np.sort(a + rng.child(f"jit{k}").normal(0.0, 0.4e-9, a.size))
            for k in range(10)
        ]
        kept = partner_candidates(sets, 2.5e-7)
        assert all(k is s for k, s in zip(kept, sets))
        starts, stops = sets[:5], sets[5:]
        args = (0.5, 2.5e-9, 10, 5e-8)
        assert car_matrix(starts, stops, *args) == _loop_matrix(starts, stops, *args)

    def test_needs_a_start_and_a_stop_stream(self):
        with pytest.raises(ConfigurationError, match="start and one stop"):
            car_matrix([], [np.zeros(3)], 1.0)
        with pytest.raises(ConfigurationError, match="start and one stop"):
            car_matrix([np.zeros(3)], [], 1.0)


def _single_merge_candidates(streams, reach_s):
    """The partner filter as one merge of the whole streams: the oracle
    of the blocked merge in :func:`partner_candidates` (probe left out)."""
    if not streams[0].size:
        return streams
    merged = np.sort(np.concatenate(streams), kind="stable")
    scale = max(-merged[0], merged[-1]) + reach_s
    close = np.diff(merged) <= reach_s + 4.0 * np.finfo(float).eps * scale
    flagged = np.zeros(merged.size, dtype=bool)
    flagged[:-1] = close
    flagged[1:] |= close
    values = merged[flagged]
    return [s[np.isin(s, values)] for s in streams]


#: Strategy: click times as integer multiples of a step (the reach, or a
#: fraction of the dead time), so gaps on the threshold, duplicates and
#: cross-stream ties are common.
grid_clicks = st.lists(st.integers(min_value=0, max_value=30), max_size=40)


class TestBlockedScans:
    """The time-blocked partner merge and gap scan with blocks of 1-8
    clicks, so every case spans many blocks, against whole-stream oracles.
    """

    @given(
        starts=grid_clicks,
        stops=grid_clicks,
        block=st.integers(min_value=1, max_value=8),
        origin=st.sampled_from([0.0, 600.0]),
        stop_shift=st.sampled_from([0, -40, 40]),
    )
    @settings(max_examples=300, deadline=None)
    # Ties straddling an edge: the edge start 1 repeats before its index
    # and in the stops, and the stop tie sits on the next edge.
    @example(starts=[0, 1, 1, 1, 2, 2, 5], stops=[1, 1, 2, 4],
             block=2, origin=0.0, stop_shift=0)
    @example(starts=[3, 3, 3, 3], stops=[3], block=1, origin=600.0,
             stop_shift=0)
    @example(starts=[0, 2, 3, 7], stops=[], block=1, origin=0.0,
             stop_shift=0)
    @example(starts=[0, 1, 4, 5, 9], stops=[0, 2, 3], block=1, origin=600.0,
             stop_shift=-40)
    @example(starts=[0, 1, 4, 5, 9], stops=[0, 2, 3], block=1, origin=600.0,
             stop_shift=40)
    def test_partner_candidates_match_single_merge(
        self, starts, stops, block, origin, stop_shift
    ):
        reach = 2.5e-7
        a = origin + reach * np.sort(np.asarray(starts, dtype=float))
        b = origin + reach * np.sort(np.asarray(stops, dtype=float) + stop_shift)
        # _DENSE_SHARE = 1 keeps the strided probe from skipping the merge.
        with mock.patch.object(tdc, "CLICK_BLOCK", block), \
                mock.patch.object(tdc, "_DENSE_SHARE", 1.0):
            kept_a, kept_b = partner_candidates([a, b], reach)
        oracle_a, oracle_b = _single_merge_candidates([a, b], reach)
        assert np.array_equal(kept_a, oracle_a)
        assert np.array_equal(kept_b, oracle_b)

    @pytest.mark.parametrize(
        "order_share", [np.inf, -1.0], ids=["by_value", "by_order"]
    )
    @given(
        streams=st.lists(grid_clicks, min_size=1, max_size=5),
        block=st.integers(min_value=1, max_value=8),
        origin=st.sampled_from([0.0, 600.0]),
    )
    @settings(max_examples=200, deadline=None)
    @example(streams=[[0, 1, 1, 5], [1, 2], [1, 9], [], [5, 5]], block=1,
             origin=600.0)
    @example(streams=[[4], [], [], [4]], block=2, origin=0.0)
    def test_stream_sets_keep_every_pair_in_reach(
        self, order_share, streams, block, origin
    ):
        reach = 2.5e-7
        sets = [origin + reach * np.sort(np.asarray(s, dtype=float)) for s in streams]
        # order_share selects the map-back: by value (inf) or by the
        # merge's own order (-1); _DENSE_SHARE = 1 keeps the probe from
        # skipping the merge.
        with mock.patch.object(tdc, "CLICK_BLOCK", block), \
                mock.patch.object(tdc, "_DENSE_SHARE", 1.0), \
                mock.patch.object(tdc, "_ORDER_SHARE", order_share):
            kept = partner_candidates(sets, reach)
        for stream, (i, survivors) in zip(sets, enumerate(kept)):
            # An order-preserving subsequence: ascending, and each value
            # kept no more often than the stream holds it.
            assert np.all(np.diff(survivors) >= 0)
            values, counts = np.unique(survivors, return_counts=True)
            assert np.all(counts <= np.searchsorted(stream, values, "right")
                          - np.searchsorted(stream, values, "left"))
            # Every click within reach of a click of another stream stays.
            others = [s for j, s in enumerate(sets) if j != i]
            for click in stream:
                if any(np.any(np.abs(s - click) <= reach) for s in others):
                    assert click in survivors
        assert all(
            np.array_equal(k, o)
            for k, o in zip(kept, _single_merge_candidates(sets, reach))
        )

    @given(
        times=grid_clicks,
        block=st.integers(min_value=1, max_value=8),
        dead_time=st.sampled_from([1e-6, 2e-6, 2.5e-6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_scan_matches_diff(self, times, block, dead_time):
        t = 600.0 + 1e-6 * np.sort(np.asarray(times, dtype=float))
        with mock.patch.object(tdc, "CLICK_BLOCK", block):
            mask = gaps_below(t, dead_time, np.empty(max(t.size - 1, 0), bool))
            kept = _apply_dead_time(t, dead_time)
        assert np.array_equal(mask, np.diff(t) < dead_time)
        assert np.array_equal(kept, _dead_time_loop(t, dead_time))


class TestFringeScanEquivalence:
    """Counting-experiment scans: identical counts, equal summaries."""

    def _scan(self, four_photon=False):
        if four_photon:
            state = add_white_noise(
                DensityMatrix.from_ket(
                    time_bin_multiphoton_state(0.0, 2), [2] * 4
                ),
                0.8,
            )
            return FringeScan(
                state=state,
                event_rate_hz=20_000.0,
                dwell_time_s=120.0,
                scanned_photon=None,
                controller=PhaseController(residual_sigma_rad=0.05),
            )
        state = add_white_noise(
            DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2]), 0.83
        )
        return FringeScan(
            state=state, event_rate_hz=5_000.0, dwell_time_s=30.0
        )

    @pytest.mark.parametrize("four_photon", [False, True])
    def test_counts_identical_and_error_close(self, four_photon):
        scan = self._scan(four_photon)
        with _loop_bootstrap():
            loop = scan.run(RandomStream(11, "fs"))
        fast = scan.run(RandomStream(11, "fs"))
        assert np.array_equal(loop.counts, fast.counts)
        assert loop.visibility == fast.visibility
        # The batched bootstrap refits via a multi-RHS least squares;
        # only BLAS rounding may differ from the per-resample loop.
        assert np.isclose(
            loop.visibility_error, fast.visibility_error, rtol=1e-9, atol=1e-12
        )

    def test_batched_fits_match_single_fits(self, rng):
        phases = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        counts = rng.poisson(
            100.0 * (1.0 + 0.8 * np.cos(phases))[None, :] + 5.0,
            size=(20, phases.size),
        ).astype(float)
        many = fit_fringe_many(phases, counts)
        singles = [fit_fringe(phases, row).visibility for row in counts]
        assert np.allclose(many, singles, rtol=1e-9)
        many_h = fit_fringe_harmonics_many(phases, counts)
        singles_h = [
            fit_fringe_harmonics(phases, row).visibility for row in counts
        ]
        assert np.allclose(many_h, singles_h, rtol=1e-9)


def _loop_bootstrap():
    """Fringe scans with the row-at-a-time bootstrap oracle."""
    return mock.patch.object(
        fringes, "_fringe_visibility_error", _fringe_visibility_error_loop
    )


def _loop_oracles(experiment_id):
    """The loop oracles patched in under one driver's fast paths."""
    if experiment_id != "E5":
        return _loop_bootstrap()
    from repro.experiments import typeii_car

    patches = contextlib.ExitStack()
    patches.enter_context(
        mock.patch.object(typeii_car, "car_from_tags", _car_from_tags_loop)
    )
    patches.enter_context(
        mock.patch.object(
            tdc.TimeToDigitalConverter,
            "delay_histogram",
            lambda self, a, b, max_delay_s: _oracle_histogram(
                a, b, self.bin_width_s, max_delay_s
            ),
        )
    )
    return patches


class TestDriverEquivalence:
    """E5/E7/E8 give identical metrics through the loop oracles."""

    pytestmark = pytest.mark.slow

    @pytest.mark.parametrize(
        "experiment_id, params",
        [
            ("E5", {"duration_s": 20.0}),
            ("E7", {}),
            ("E8", {}),
        ],
    )
    def test_driver_impl_equivalence(self, experiment_id, params):
        from repro.experiments.registry import run_experiment

        with _loop_oracles(experiment_id):
            loop = run_experiment(
                experiment_id, seed=42, quick=True, params=params
            )
        fast = run_experiment(experiment_id, seed=42, quick=True, params=params)
        assert loop.rows == fast.rows
        for name, value in loop.metrics.items():
            assert np.isclose(
                value, fast.metrics[name], rtol=1e-9, atol=1e-12
            ), name
