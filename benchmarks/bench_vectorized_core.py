"""Loop-vs-vectorized timings of the batched simulation core.

Times every switchable hot path against its loop reference oracle at
realistic experiment statistics, prints a speedup table, and appends a
trajectory entry to ``BENCH_vectorized.json`` in the repository root so
the speedups are tracked across commits.

The pair kernels (CAR counting and TDC delay collection) are also
timed with and without their sparse-first partner filter, on an
E1-shaped sparse pair of streams and on the dense correlated pair; the
ratios, taken in one process, must show the filter paying off on the
first and costing little on the second.

The headline assertion mirrors the batched-core acceptance bar: the
vectorized fringe/coincidence sweep — a phase scan whose points each
run the time-bin Monte Carlo *and* the CAR/TDC analysis chain, exactly
the mix E2/E5/E7 pay per sweep point — must beat the loop reference by
at least 5x.  Per-path assertions are looser where the two
implementations share irreducible RNG draws (the fringe Monte Carlo
spends most of its time drawing identical outcomes in both paths).
"""

from __future__ import annotations

import contextlib
import time
from unittest import mock

import numpy as np

from conftest import record_trajectory

from repro.detection import coincidence, tdc as tdc_module
from repro.detection.coincidence import car_from_tags
from repro.detection.tdc import TimeToDigitalConverter, collect_delays
from repro.quantum.noise import add_white_noise
from repro.quantum.states import DensityMatrix
from repro.timebin.encoding import time_bin_bell_state
from repro.timebin.interferometer import UnbalancedMichelson
from repro.timebin.montecarlo import TimeBinCoincidenceSimulator
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


def bench_vectorized_core(benchmark):
    """Time each switchable path both ways; assert the ≥5x headline."""
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
        lambda: car_from_tags(a, b, 60.0, impl="loop"),
        lambda: car_from_tags(a, b, 60.0, impl="vectorized"),
        lambda x, y: _assert(x == y, "CAR results diverged"),
    )

    # --- TDC: start-stop correlator histogram -------------------------
    tdc = TimeToDigitalConverter()
    compare(
        "tdc_delay_histogram",
        lambda: tdc.delay_histogram(a, b, 10e-9, impl="loop"),
        lambda: tdc.delay_histogram(a, b, 10e-9, impl="vectorized"),
        lambda x, y: _assert(np.array_equal(x[1], y[1]), "TDC histograms diverged"),
    )

    # --- timebin: Monte-Carlo fringe scan (shared RNG draws cap this) -
    state = add_white_noise(
        DensityMatrix.from_ket(time_bin_bell_state(0.0), [2, 2]), 0.85
    )
    simulator = TimeBinCoincidenceSimulator(
        state=state, alice=UnbalancedMichelson(), bob=UnbalancedMichelson()
    )
    phases = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    fringe_speedup = compare(
        "montecarlo_fringe_scan",
        lambda: simulator.fringe_scan(
            phases, 50_000, RandomStream(7, "fb"), impl="loop"
        ),
        lambda: simulator.fringe_scan(
            phases, 50_000, RandomStream(7, "fb"), impl="vectorized"
        ),
        lambda x, y: _assert(np.array_equal(x, y), "fringe counts diverged"),
    )

    # --- headline: the fringe+coincidence sweep, timed under pytest-
    # benchmark.  Eight phase points; each runs the fringe Monte Carlo
    # and the CAR analysis chain on its tag streams (the per-point mix
    # every E2/E5/E7-style sweep pays).
    sweep_phases = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)

    def sweep(impl):
        counts = simulator.fringe_scan(
            sweep_phases, 20_000, RandomStream(11, "sw"), impl=impl
        )
        car = car_from_tags(a, b, 60.0, impl=impl)
        return counts, car.car

    loop_sweep, loop_sweep_s = _time(lambda: sweep("loop"), repeats=2)
    fast_sweep = benchmark.pedantic(
        lambda: sweep("vectorized"), rounds=3, iterations=1
    )
    fast_sweep_s = max(benchmark.stats.stats.min, 1e-9)
    _assert(
        np.array_equal(loop_sweep[0], fast_sweep[0])
        and loop_sweep[1] == fast_sweep[1],
        "sweep results diverged",
    )
    sweep_speedup = loop_sweep_s / fast_sweep_s
    entries["fringe_coincidence_sweep"] = {
        "loop_s": round(loop_sweep_s, 4),
        "vectorized_s": round(fast_sweep_s, 4),
        "speedup": round(sweep_speedup, 2),
    }

    # --- sparse-first partner filter, sparse and dense regimes -------
    filter_entries: dict[str, dict[str, float]] = {}
    regimes = {"sparse": _sparse_streams(), "dense": (a, b)}
    for regime, (starts, stops) in regimes.items():
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
    path = record_trajectory(
        "vectorized", {"paths": entries, "partner_filter": filter_entries}
    )
    print(f"trajectory entry appended to {path.name}")

    # Acceptance bar: the vectorized fringe/coincidence sweep beats the
    # loop reference >= 5x; the pure counting paths far exceed it, the
    # fringe Monte Carlo alone is capped by bit-identical shared draws.
    assert sweep_speedup >= 5.0, f"sweep speedup only {sweep_speedup:.1f}x"
    assert entries["car_from_tags"]["speedup"] >= 5.0
    assert entries["tdc_delay_histogram"]["speedup"] >= 5.0
    assert fringe_speedup >= 1.2
    # The partner filter: a clear win on sparse streams, and on dense
    # ones (where its probe sends every start to the full gather) no
    # more than a probe's worth of overhead.
    for kernel in ("car_from_tags", "collect_delays"):
        assert filter_entries[f"{kernel}_sparse"]["speedup"] >= 1.5, kernel
        assert filter_entries[f"{kernel}_dense"]["speedup"] >= 1 / 1.2, kernel


def _assert(condition: bool, message: str) -> None:
    """Equivalence guard used inside the timing comparisons."""
    if not condition:
        raise AssertionError(message)
