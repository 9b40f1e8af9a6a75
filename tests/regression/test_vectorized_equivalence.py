"""Loop-vs-vectorized equivalence: the batched core against its oracle.

Every switchable hot path keeps its original Python-loop implementation
as a reference oracle (``impl="loop"``); these tests prove that the
``impl="vectorized"`` fast path returns *identical* results for
identical :class:`RandomStream` seeds — exact integer counts and
bit-identical arrays wherever the implementations share float
operations, and tight (BLAS-rounding-level) agreement for the one
least-squares summary the batched bootstrap computes differently.

Hypothesis drives the detection-layer cases over adversarial tag
streams (duplicates, bursts, empty streams, boundary-straddling
windows); the timebin cases replay full Monte-Carlo scans.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.coincidence import (
    accidental_window_centers,
    car_from_tags,
    coincidence_histogram,
    count_coincidences,
)
from repro.detection.spd import _apply_dead_time, _dead_time_jump, _dead_time_loop
from repro.detection.tdc import (
    TimeToDigitalConverter,
    collect_delays,
    partner_candidates,
)
from repro.errors import ConfigurationError
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.fringes import FringeScan
from repro.timebin.interferometer import UnbalancedMichelson
from repro.timebin.montecarlo import TimeBinCoincidenceSimulator
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


class TestDetectionEquivalence:
    """TDC and coincidence paths: exact equality on adversarial streams."""

    @given(starts=click_times, stops=click_times, max_delay=windows)
    @settings(max_examples=150, deadline=None)
    def test_collect_delays_identical(self, starts, stops, max_delay):
        a = np.sort(np.asarray(starts, dtype=float))
        b = np.sort(np.asarray(stops, dtype=float))
        loop = collect_delays(a, b, max_delay, impl="loop")
        fast = collect_delays(a, b, max_delay, impl="vectorized")
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
        loop = count_coincidences(a, b, window, center, impl="loop")
        fast = count_coincidences(a, b, window, center, impl="vectorized")
        assert loop == fast

    @given(starts=click_times, stops=click_times, max_delay=windows)
    @settings(max_examples=60, deadline=None)
    def test_delay_histogram_identical(self, starts, stops, max_delay):
        tdc = TimeToDigitalConverter(bin_width_s=max_delay / 16.0)
        a = np.asarray(starts, dtype=float)
        b = np.asarray(stops, dtype=float)
        loop = tdc.delay_histogram(a, b, max_delay, impl="loop")
        fast = tdc.delay_histogram(a, b, max_delay, impl="vectorized")
        assert np.array_equal(loop[0], fast[0])
        assert np.array_equal(loop[1], fast[1])

    def test_car_from_tags_identical(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 30.0, 30_000))
        b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
        loop = car_from_tags(a, b, 30.0, impl="loop")
        fast = car_from_tags(a, b, 30.0, impl="vectorized")
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
        assert car_from_tags(*args, impl="vectorized") == car_from_tags(
            *args, impl="loop"
        )

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
            _dead_time_jump(values, dead_time),
            _dead_time_loop(values, dead_time),
        )

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
        # Above 200k clicks _apply_dead_time takes the jump path.
        times = rng.child(label).uniform(0.0, duration_s, size)
        if grid_s is not None:
            times = np.round(times / grid_s) * grid_s
        times = np.sort(times)
        assert np.array_equal(
            _apply_dead_time(times, dead_time_s),
            _dead_time_loop(times, dead_time_s),
        )

    def test_coincidence_histogram_identical(self, rng):
        a = rng.child("a").uniform(0.0, 5.0, 20_000)
        b = rng.child("b").uniform(0.0, 5.0, 20_000)
        loop = coincidence_histogram(a, b, 1e-9, 40e-9, impl="loop")
        fast = coincidence_histogram(a, b, 1e-9, 40e-9, impl="vectorized")
        assert np.array_equal(loop[1], fast[1])

    def test_unknown_impl_rejected(self):
        from repro.experiments.registry import run_experiment

        with pytest.raises(ConfigurationError):
            collect_delays(np.zeros(1), np.zeros(1), 1.0, impl="gpu")
        with pytest.raises(ConfigurationError):
            count_coincidences(np.zeros(1), np.zeros(1), 1.0, impl="fast")
        supported = r"one of \['loop', 'vectorized'\], got 'chunked'$"
        with pytest.raises(ConfigurationError, match=supported):
            car_from_tags(np.zeros(1), np.zeros(1), 1.0, impl="chunked")
        with pytest.raises(ConfigurationError, match=supported):
            run_experiment("E7", seed=1, quick=True, params={"impl": "chunked"})


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
        assert partner_candidates(a, b, reach)[0].size < a.size
        args = (a, b, 1.0, window, num_windows, offset)
        assert car_from_tags(*args, impl="vectorized") == car_from_tags(
            *args, impl="loop"
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        origin=st.sampled_from([0.0, 600.0]),
        max_delay=st.floats(min_value=1e-10, max_value=1e-6),
    )
    @settings(max_examples=30, deadline=None)
    def test_collect_delays_identical(self, seed, origin, max_delay):
        a, b = _sparse_streams(seed, origin, max_delay, [-max_delay, max_delay])
        assert partner_candidates(a, b, max_delay)[0].size < a.size
        loop = collect_delays(a, b, max_delay, impl="loop")
        fast = collect_delays(a, b, max_delay, impl="vectorized")
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
            collect_delays(a, b, 2.5e-7, impl="vectorized"),
            collect_delays(a, b, 2.5e-7, impl="loop"),
        )
        args = (a, b, 1.0, 2.5e-9, 10, 5e-8)
        assert car_from_tags(*args, impl="vectorized") == car_from_tags(
            *args, impl="loop"
        )

    def test_dense_streams_skip_the_filter(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 2.0, 4000))
        b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
        kept_a, kept_b = partner_candidates(a, b, 2.5e-7)
        assert kept_a is a and kept_b is b
        assert np.array_equal(
            collect_delays(a, b, 2.5e-7, impl="vectorized"),
            collect_delays(a, b, 2.5e-7, impl="loop"),
        )
        assert car_from_tags(a, b, 2.0, impl="vectorized") == car_from_tags(
            a, b, 2.0, impl="loop"
        )


def _simulator(visibility=0.85, jitter_sigma_s=120e-12):
    state = add_white_noise(
        DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2]), visibility
    )
    return TimeBinCoincidenceSimulator(
        state=state,
        alice=UnbalancedMichelson(),
        bob=UnbalancedMichelson(),
        jitter_sigma_s=jitter_sigma_s,
    )


class TestTimebinEquivalence:
    """Monte-Carlo fringe scans: identical counts for identical seeds."""

    def test_count_central_coincidences_identical(self, rng):
        simulator = _simulator()
        record = simulator.simulate(20_000, rng)
        loop = simulator.count_central_coincidences(record, impl="loop")
        fast = simulator.count_central_coincidences(record, impl="vectorized")
        assert loop == fast

    def test_fringe_scan_identical(self, rng_factory):
        simulator = _simulator()
        phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        loop = simulator.fringe_scan(
            phases, 5_000, rng_factory("scan"), impl="loop"
        )
        fast = simulator.fringe_scan(
            phases, 5_000, rng_factory("scan"), impl="vectorized"
        )
        assert np.array_equal(loop, fast)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        visibility=st.floats(min_value=0.0, max_value=1.0),
        n_phases=st.integers(min_value=1, max_value=6),
        n_pairs=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=25, deadline=None)
    def test_fringe_scan_identical_property(
        self, seed, visibility, n_phases, n_pairs
    ):
        simulator = _simulator(visibility)
        phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
        loop = simulator.fringe_scan(
            phases, n_pairs, RandomStream(seed, "eq"), impl="loop"
        )
        fast = simulator.fringe_scan(
            phases, n_pairs, RandomStream(seed, "eq"), impl="vectorized"
        )
        assert np.array_equal(loop, fast)

    def test_fringe_scan_identical_with_pathological_jitter(self):
        # Jitter comparable to the pulse period pushes tags across pulse
        # boundaries — the vectorized grid must fall back to the oracle's
        # out-of-range handling and still agree exactly.
        simulator = _simulator(jitter_sigma_s=20e-9)
        phases = np.linspace(0.0, 6.0, 8)
        loop = simulator.fringe_scan(
            phases, 3_000, RandomStream(7, "wild"), impl="loop"
        )
        fast = simulator.fringe_scan(
            phases, 3_000, RandomStream(7, "wild"), impl="vectorized"
        )
        assert np.array_equal(loop, fast)


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
        loop = scan.run(RandomStream(11, "fs"), impl="loop")
        fast = scan.run(RandomStream(11, "fs"), impl="vectorized")
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


class TestDriverEquivalence:
    """E5/E7/E8 give identical metrics through every implementation."""

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

        loop = run_experiment(
            experiment_id, seed=42, quick=True,
            params={**params, "impl": "loop"},
        )
        fast = run_experiment(
            experiment_id, seed=42, quick=True,
            params={**params, "impl": "vectorized"},
        )
        assert loop.rows == fast.rows
        for name, value in loop.metrics.items():
            assert np.isclose(
                value, fast.metrics[name], rtol=1e-9, atol=1e-12
            ), name
