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

import statistics
import time

from conftest import usable_cpus

from repro.runtime.engine import RunEngine
from repro.runtime.scan import LinearScan

#: Alternating serial/parallel rounds of the pool-speedup bench.
SWEEP_ROUNDS = 3


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
    # Full-statistics E5 points (~0.25 s each on a 2-core host): quick
    # points (~35 ms) cost less than starting the pool and persisting
    # each record in this process, so no pool could win on them.
    scan = LinearScan("pump_mw", 1.0, 4.0, 6)
    # One untimed point first, so the serial sweep and the forked pool
    # both start from a process that has already imported and run E5.
    RunEngine(root=tmp_path / "warm", use_cache=False).run("E5")

    def sweep(name, workers):
        engine = RunEngine(
            root=tmp_path / name, use_cache=False, max_workers=workers
        )
        start = time.perf_counter()
        outcome = engine.sweep("E5", scan)
        return outcome, time.perf_counter() - start

    def alternating_rounds():
        # Serial and parallel take turns, so a burst of load on a
        # shared host slows both; each side is judged by its median.
        return [
            (sweep(f"serial-{index}", 1), sweep(f"parallel-{index}", 3))
            for index in range(SWEEP_ROUNDS)
        ]

    rounds = benchmark.pedantic(alternating_rounds, rounds=1, iterations=1)
    serial_s = statistics.median(s for (_, s), _ in rounds)
    parallel_s = statistics.median(p for _, (_, p) in rounds)

    for (serial_outcome, _), (parallel_outcome, _) in rounds:
        for s, p in zip(serial_outcome.outcomes, parallel_outcome.outcomes):
            assert p.result.metrics == s.result.metrics
    cpus = usable_cpus()
    print()
    print(
        f"serial: {serial_s:6.2f} s   parallel(3): {parallel_s:6.2f} s   "
        f"speedup: {serial_s / parallel_s:4.2f}x   (cpus: {cpus}, "
        f"medians of {SWEEP_ROUNDS} rounds)"
    )
    if cpus >= 2:
        # Pool overhead must not erase the win on a 6-point sweep.
        assert parallel_s < serial_s
    else:
        # Single-core box: no wall-clock win is possible; the pool must
        # at least not collapse (< 2x penalty) and results must match.
        assert parallel_s < 2.0 * serial_s
