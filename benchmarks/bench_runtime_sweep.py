"""Runtime bench — run-engine sweep throughput.

Measures the two scaling mechanisms of :mod:`repro.runtime.engine`:

- cached vs cold: a repeated sweep must be served from the
  content-addressed result cache much faster than it was computed;
- serial vs parallel: a multi-point sweep over a non-trivial driver
  must speed up across the worker pool.

Both benches print a small timing table; assertions are deliberately
loose (factors, not absolute times) so they hold on slow CI machines.
"""

from __future__ import annotations

import time

from conftest import usable_cpus

from repro.runtime.engine import RunEngine
from repro.runtime.scan import LinearScan


def bench_cached_vs_cold_sweep(tmp_path, benchmark):
    """A repeated E6 pump sweep is served from the result cache."""
    scan = LinearScan("pump_mw", 2.0, 20.0, 10)

    def cold():
        return RunEngine(root=tmp_path / "engine").sweep("E6", scan)

    outcome = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert outcome.num_cached == 0
    cold_s = max(benchmark.stats.stats.total, 1e-9)

    start = time.perf_counter()
    cached = RunEngine(root=tmp_path / "engine").sweep("E6", scan)
    cached_s = time.perf_counter() - start

    assert cached.num_cached == len(scan)
    for before, after in zip(outcome.outcomes, cached.outcomes):
        assert after.result.metrics == before.result.metrics
    print()
    print(
        f"cold sweep: {cold_s * 1e3:8.1f} ms   "
        f"cached sweep: {cached_s * 1e3:8.1f} ms   "
        f"speedup: {cold_s / cached_s:6.1f}x"
    )
    # Loose bound: the cache must beat recomputation clearly.
    assert cached_s < cold_s / 5.0


def bench_serial_vs_parallel_sweep(tmp_path, benchmark):
    """A 6-point E5 sweep speeds up across the process pool."""
    # E5 integrates click streams, so per-point cost is real (~0.5 s);
    # short duration keeps the bench itself quick.
    scan = LinearScan("pump_mw", 1.0, 4.0, 6)
    base = {"duration_s": 10.0}
    # One untimed point first, so the serial sweep and the forked pool
    # both start from a process that has already imported and run E5.
    RunEngine(root=tmp_path / "warm", use_cache=False).run(
        "E5", quick=True, params=base
    )

    def serial():
        return RunEngine(root=tmp_path / "serial", use_cache=False).sweep(
            "E5", scan, quick=True, base_params=base
        )

    start = time.perf_counter()
    serial_outcome = serial()
    serial_s = time.perf_counter() - start

    def parallel():
        return RunEngine(
            root=tmp_path / "parallel", use_cache=False, max_workers=3
        ).sweep("E5", scan, quick=True, base_params=base)

    parallel_outcome = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = max(benchmark.stats.stats.total, 1e-9)

    for s, p in zip(serial_outcome.outcomes, parallel_outcome.outcomes):
        assert p.result.metrics == s.result.metrics
    cpus = usable_cpus()
    print()
    print(
        f"serial: {serial_s:6.2f} s   parallel(3): {parallel_s:6.2f} s   "
        f"speedup: {serial_s / parallel_s:4.2f}x   (cpus: {cpus})"
    )
    if cpus >= 2:
        # Pool overhead must not erase the win on a 6-point sweep.
        assert parallel_s < serial_s
    else:
        # Single-core box: no wall-clock win is possible; the pool must
        # at least not collapse (< 2x penalty) and results must match.
        assert parallel_s < 2.0 * serial_s
