"""Loop-vs-vectorized equivalence: the batched core against its oracle.

Every switchable hot path keeps its original Python-loop implementation
as a reference oracle (``impl="loop"``); these tests prove that the
``impl="vectorized"`` and ``impl="chunked"`` fast paths return
*identical* results for identical :class:`RandomStream` seeds — exact
integer counts and bit-identical arrays wherever the implementations
share float operations, and tight (BLAS-rounding-level) agreement for
the one least-squares summary the batched bootstrap computes
differently.  The chunked backend additionally must not depend on the
worker count: ``REPRO_CHUNK_WORKERS`` forces a real process pool even
on a single-core machine.

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
from repro.detection.tdc import TimeToDigitalConverter, collect_delays
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
        with pytest.raises(ConfigurationError):
            collect_delays(np.zeros(1), np.zeros(1), 1.0, impl="gpu")
        with pytest.raises(ConfigurationError):
            count_coincidences(np.zeros(1), np.zeros(1), 1.0, impl="fast")


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


class TestChunkedEquivalence:
    """The chunk-parallel backend against the loop oracle, bit-identical.

    Chunked paths replay counter-based RNG slices through the shared
    process pool; reassembled results must equal the loop reference
    exactly — including when ``REPRO_CHUNK_WORKERS`` forces a real pool
    on a single-core machine.
    """

    def test_collect_delays_chunked_identical(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 10.0, 50_000))
        b = np.sort(rng.child("b").uniform(0.0, 10.0, 50_000))
        loop = collect_delays(a, b, 1e-3, impl="loop")
        chunked = collect_delays(a, b, 1e-3, impl="chunked")
        assert np.array_equal(loop, chunked)

    def test_car_from_tags_chunked_identical(self, rng):
        a = np.sort(rng.child("a").uniform(0.0, 30.0, 30_000))
        b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
        assert car_from_tags(a, b, 30.0, impl="loop") == car_from_tags(
            a, b, 30.0, impl="chunked"
        )

    def test_coincidence_histogram_chunked_identical(self, rng):
        a = rng.child("a").uniform(0.0, 5.0, 20_000)
        b = rng.child("b").uniform(0.0, 5.0, 20_000)
        loop = coincidence_histogram(a, b, 1e-9, 40e-9, impl="loop")
        chunked = coincidence_histogram(a, b, 1e-9, 40e-9, impl="chunked")
        assert np.array_equal(loop[1], chunked[1])

    def test_fringe_scan_chunked_identical(self, rng_factory):
        simulator = _simulator()
        phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        loop = simulator.fringe_scan(
            phases, 5_000, rng_factory("scan"), impl="loop"
        )
        chunked = simulator.fringe_scan(
            phases, 5_000, rng_factory("scan"), impl="chunked"
        )
        assert np.array_equal(loop, chunked)

    def test_fringe_scan_chunked_identical_with_forced_pool(
        self, rng_factory, monkeypatch
    ):
        # Two workers on a one-core box: results must not depend on how
        # many processes the chunks actually land on.
        simulator = _simulator()
        phases = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
        loop = simulator.fringe_scan(
            phases, 3_000, rng_factory("pool"), impl="loop"
        )
        monkeypatch.setenv("REPRO_CHUNK_WORKERS", "2")
        chunked = simulator.fringe_scan(
            phases, 3_000, rng_factory("pool"), impl="chunked"
        )
        assert np.array_equal(loop, chunked)

    def test_fringe_scan_run_chunked_counts_identical(self):
        state = add_white_noise(
            DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2]), 0.83
        )
        scan = FringeScan(
            state=state, event_rate_hz=5_000.0, dwell_time_s=30.0
        )
        loop = scan.run(RandomStream(11, "fs"), impl="loop")
        chunked = scan.run(RandomStream(11, "fs"), impl="chunked")
        assert np.array_equal(loop.counts, chunked.counts)
        assert loop.visibility == chunked.visibility
        assert np.isclose(
            loop.visibility_error,
            chunked.visibility_error,
            rtol=1e-9,
            atol=1e-12,
        )


class TestDriverEquivalence:
    """E5/E7/E8 give identical metrics through every implementation."""

    pytestmark = pytest.mark.slow

    @pytest.mark.parametrize("fast_impl", ["vectorized", "chunked"])
    @pytest.mark.parametrize(
        "experiment_id, params",
        [
            ("E5", {"duration_s": 20.0}),
            ("E7", {}),
            ("E8", {}),
        ],
    )
    def test_driver_impl_equivalence(self, experiment_id, params, fast_impl):
        from repro.experiments.registry import run_experiment

        loop = run_experiment(
            experiment_id, seed=42, quick=True,
            params={**params, "impl": "loop"},
        )
        fast = run_experiment(
            experiment_id, seed=42, quick=True,
            params={**params, "impl": fast_impl},
        )
        assert loop.rows == fast.rows
        for name, value in loop.metrics.items():
            assert np.isclose(
                value, fast.metrics[name], rtol=1e-9, atol=1e-12
            ), name
