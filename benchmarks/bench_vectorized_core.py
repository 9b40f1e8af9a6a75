"""Loop-vs-vectorized timings of the batched simulation core.

Times every vectorized hot path against its private loop reference
oracle at realistic experiment statistics, prints a speedup table, and appends a
trajectory entry to ``BENCH_vectorized.json`` in the repository root so
the speedups are tracked across commits.

The pair kernels (CAR counting and TDC delay collection) are also
timed with and without their sparse-first partner filter, on an
E1-shaped sparse pair of streams and on the dense correlated pair; the
ratios, taken in one process, must show the filter paying off on the
first and costing little on the second.  The filter's tracemalloc
peak on both pairs is recorded next to the ratios: it runs in time
blocks, so it should stay a small fraction of one stream's float copy.

The headline assertion mirrors the batched-core acceptance bar: the
fringe/coincidence sweep — points that each run the fringe scan E7 and
E8 run (``FringeScan.run``: Poisson counts, fit, bootstrap error) and
the CAR analysis E2 and E5 run (``car_from_tags``) — must beat the same
sweep with the loop oracles patched in (``_fringe_visibility_error_loop``
and ``_car_from_tags_loop``) by at least 5x.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import tracemalloc
from unittest import mock

import numpy as np

from conftest import record_trajectory

from repro.detection import coincidence, tdc as tdc_module
from repro.detection.coincidence import _car_from_tags_loop, car_from_tags
from repro.detection.tdc import (
    TimeToDigitalConverter,
    _collect_delays_loop,
    collect_delays,
    partner_candidates,
)
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin import fringes
from repro.timebin.encoding import time_bin_bell_state, time_bin_multiphoton_state
from repro.timebin.fringes import FringeScan, _fringe_visibility_error_loop
from repro.utils.rng import RandomStream


def _time(fn, repeats: int = 3):
    """(result, best-of-``repeats`` seconds) of a call.

    Taking the minimum over a few repetitions keeps the CI-gating
    speedup assertions from flaking on a single scheduling hiccup.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _streams(duration_s=60.0, rate_hz=1500.0):
    """Correlated (a, b) tag streams at CAR-experiment statistics."""
    rng = RandomStream(3, "bench-core")
    a = np.sort(rng.child("a").uniform(0.0, duration_s,
                                       int(rate_hz * duration_s)))
    b = np.sort(a + rng.child("jit").normal(0.0, 0.4e-9, a.size))
    return a, b


def _sparse_streams(duration_s=40.0, clicks=600_000, paired=0.01):
    """E1-shaped streams: independent singles plus ~1 % true pairs."""
    rng = RandomStream(5, "bench-sparse")
    a = np.sort(rng.child("a").uniform(0.0, duration_s, clicks))
    n_pairs = int(paired * clicks)
    partners = a[:: clicks // n_pairs][:n_pairs]
    b = np.sort(np.concatenate([
        rng.child("b").uniform(0.0, duration_s, clicks - n_pairs),
        partners + rng.child("jit").normal(0.0, 0.4e-9, n_pairs),
    ]))
    return a, b


def _loop_delay_histogram(tdc, starts, stops, max_delay_s):
    """The TDC histogram with delays from the loop oracle: the correlator's
    bins, counts from ``np.histogram``."""
    n_bins = max(int(round(2.0 * max_delay_s / tdc.bin_width_s)), 2)
    edges = np.linspace(-max_delay_s, max_delay_s, n_bins + 1)
    delays = _collect_delays_loop(starts, stops, max_delay_s)
    return 0.5 * (edges[:-1] + edges[1:]), np.histogram(delays, bins=edges)[0]


def _car_counts(a, b):
    """The coincidence count and accidental mean of the 11-window CAR."""
    result = car_from_tags(a, b, 40.0)
    return np.array([result.coincidences, result.accidentals_mean])


@contextlib.contextmanager
def _unfiltered():
    """The pair kernels with the partner filter switched off: every
    start goes through ``window_slices``."""
    def keep_all(starts, stops, reach_s):
        return starts, stops

    with mock.patch.object(coincidence, "partner_candidates", keep_all), \
            mock.patch.object(tdc_module, "partner_candidates", keep_all):
        yield


def _filter_ratio(fn, repeats=7):
    """(filtered s, unfiltered s), best of ``repeats`` interleaved runs."""
    filtered = unfiltered = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        with_filter = fn()
        filtered = min(filtered, time.perf_counter() - start)
        with _unfiltered():
            start = time.perf_counter()
            without = fn()
            unfiltered = min(unfiltered, time.perf_counter() - start)
        _assert(np.array_equal(with_filter, without), "filter changed a result")
    return filtered, unfiltered


def _filter_peak_mb(starts, stops, reach_s):
    """The partner filter's tracemalloc peak, in MB."""
    tracemalloc.start()
    try:
        partner_candidates(starts, stops, reach_s)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_vectorized_core(benchmark):
    """Time each path against its oracle; assert the ≥5x headline."""
    entries: dict[str, dict[str, float]] = {}

    def compare(name, loop_fn, fast_fn, check_equal):
        loop_result, loop_s = _time(loop_fn, repeats=2)
        fast_result, fast_s = _time(fast_fn)
        check_equal(loop_result, fast_result)
        speedup = loop_s / max(fast_s, 1e-9)
        entries[name] = {
            "loop_s": round(loop_s, 4),
            "vectorized_s": round(fast_s, 4),
            "speedup": round(speedup, 2),
        }
        return speedup

    # --- coincidence: CAR with 11 counting windows over 90k tags ------
    a, b = _streams()
    compare(
        "car_from_tags",
        lambda: _car_from_tags_loop(a, b, 60.0),
        lambda: car_from_tags(a, b, 60.0),
        lambda x, y: _assert(x == y, "CAR results diverged"),
    )

    # --- TDC: start-stop correlator histogram -------------------------
    tdc = TimeToDigitalConverter()
    compare(
        "tdc_delay_histogram",
        lambda: _loop_delay_histogram(tdc, a, b, 10e-9),
        lambda: tdc.delay_histogram(a, b, 10e-9),
        lambda x, y: _assert(np.array_equal(x[1], y[1]), "TDC histograms diverged"),
    )

    # --- headline: the fringe+coincidence sweep, timed under pytest-
    # benchmark.  Four points alternate an E7-style two-photon and an
    # E8-style four-photon fringe scan; each point also runs the E2/E5
    # CAR analysis on the tag streams.  The loop side patches the loop
    # oracles in under the drivers' calls.
    scans = [
        FringeScan(
            state=add_white_noise(
                DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2]), 0.83
            ),
            event_rate_hz=5_000.0,
        ),
        FringeScan(
            state=add_white_noise(
                DensityMatrix.from_ket(
                    time_bin_multiphoton_state(0.0, 2), [2] * 4
                ),
                0.8,
            ),
            event_rate_hz=20_000.0,
            dwell_time_s=120.0,
            scanned_photon=None,
        ),
    ]

    def sweep():
        return [
            (
                scans[k % 2].run(RandomStream(11, f"sw{k}")),
                coincidence.car_from_tags(a, b, 60.0),
            )
            for k in range(4)
        ]

    def loop_sweep_fn():
        with mock.patch.object(
            fringes, "_fringe_visibility_error", _fringe_visibility_error_loop
        ), mock.patch.object(coincidence, "car_from_tags", _car_from_tags_loop):
            return sweep()

    loop_sweep, loop_sweep_s = _time(loop_sweep_fn, repeats=2)
    fast_sweep = benchmark.pedantic(sweep, rounds=3, iterations=1)
    fast_sweep_s = max(benchmark.stats.stats.min, 1e-9)
    for (loop_scan, loop_car), (fast_scan, fast_car) in zip(
        loop_sweep, fast_sweep
    ):
        _assert(
            np.array_equal(loop_scan.counts, fast_scan.counts)
            and _fits_equal(loop_scan.fit, fast_scan.fit)
            and loop_car == fast_car,
            "sweep results diverged",
        )
        # The batched bootstrap refits via a multi-RHS least squares;
        # only BLAS rounding may differ from the per-resample loop.
        _assert(
            bool(np.isclose(loop_scan.visibility_error,
                            fast_scan.visibility_error,
                            rtol=1e-9, atol=1e-12)),
            "bootstrap errors diverged",
        )
    sweep_speedup = loop_sweep_s / fast_sweep_s
    entries["fringe_coincidence_sweep"] = {
        "loop_s": round(loop_sweep_s, 4),
        "vectorized_s": round(fast_sweep_s, 4),
        "speedup": round(sweep_speedup, 2),
    }

    # --- sparse-first partner filter, sparse and dense regimes -------
    filter_entries: dict[str, dict[str, float]] = {}
    filter_peaks: dict[str, dict[str, float]] = {}
    regimes = {"sparse": _sparse_streams(), "dense": (a, b)}
    for regime, (starts, stops) in regimes.items():
        filter_peaks[regime] = {
            "clicks": int(starts.size + stops.size),
            "stream_mb": round(starts.nbytes / 1e6, 2),
            "peak_mb": round(_filter_peak_mb(starts, stops, 10e-9), 3),
        }
        kernels = {
            "car_from_tags": lambda: _car_counts(starts, stops),
            "collect_delays": lambda: collect_delays(starts, stops, 10e-9),
        }
        for kernel, fn in kernels.items():
            filtered_s, unfiltered_s = _filter_ratio(fn)
            filter_entries[f"{kernel}_{regime}"] = {
                "clicks": int(starts.size + stops.size),
                "filtered_s": round(filtered_s, 5),
                "unfiltered_s": round(unfiltered_s, 5),
                "speedup": round(unfiltered_s / max(filtered_s, 1e-9), 2),
            }

    print()
    for name, entry in entries.items():
        print(
            f"{name:28s} loop {entry['loop_s']*1e3:9.1f} ms   "
            f"vectorized {entry['vectorized_s']*1e3:9.1f} ms   "
            f"speedup {entry['speedup']:7.1f}x"
        )
    for name, entry in filter_entries.items():
        print(
            f"{name:28s} unfiltered {entry['unfiltered_s']*1e3:7.1f} ms   "
            f"filtered {entry['filtered_s']*1e3:7.1f} ms   "
            f"speedup {entry['speedup']:5.2f}x"
        )
    for regime, entry in filter_peaks.items():
        print(
            f"partner_candidates_{regime:10s} peak {entry['peak_mb']:7.3f} MB"
            f"   (one stream {entry['stream_mb']:.2f} MB)"
        )
    path = record_trajectory(
        "vectorized",
        {
            "paths": entries,
            "partner_filter": filter_entries,
            "partner_filter_peak": filter_peaks,
        },
    )
    print(f"trajectory entry appended to {path.name}")

    # Acceptance bar: the fringe/coincidence sweep beats the loop
    # oracles >= 5x, and so does each pure counting path.
    assert sweep_speedup >= 5.0, f"sweep speedup only {sweep_speedup:.1f}x"
    assert entries["car_from_tags"]["speedup"] >= 5.0
    assert entries["tdc_delay_histogram"]["speedup"] >= 5.0
    # The partner filter: a clear win on sparse streams, and on dense
    # ones (where its probe sends every start to the full gather) no
    # more than a probe's worth of overhead.
    for kernel in ("car_from_tags", "collect_delays"):
        assert filter_entries[f"{kernel}_sparse"]["speedup"] >= 1.5, kernel
        assert filter_entries[f"{kernel}_dense"]["speedup"] >= 1 / 1.2, kernel


def _fits_equal(x, y) -> bool:
    """Whether two fringe fits agree field by field, exactly."""
    return all(
        np.array_equal(getattr(x, field.name), getattr(y, field.name))
        for field in dataclasses.fields(x)
    )


def _assert(condition: bool, message: str) -> None:
    """Equivalence guard used inside the timing comparisons."""
    if not condition:
        raise AssertionError(message)
