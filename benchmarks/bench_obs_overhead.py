"""Disabled-observability overhead of the dataset bus publish path.

The bus (PR 9) adds two façade calls to every sweep point —
``publish_mod`` for the point diff and for the counter update — on top
of the span/counter calls the engine already makes.  All of them must
stay free when ``REPRO_OBS`` is off: a disabled publish is one
attribute check and a ``return 0``.  This benchmark times the three
disabled façade shapes (span+count pair, ``publish_mod``,
``publish_init``) per call, normalises them against a cached engine
run, and appends the figures to ``BENCH_obs.json`` so ``repro
bench-report`` can plot the trajectory across PRs.

The hard gate lives in ``tests/obs/test_overhead.py`` (<5% of a cached
run); this file records the trajectory at benchmark statistics.
"""

from __future__ import annotations

import statistics
import time
import timeit

from conftest import record_trajectory

from repro import obs
from repro.obs import names
from repro.runtime.engine import RunEngine

#: Obs façade calls a single cached engine run may make (see
#: tests/obs/test_overhead.py), now including the bus publishes.
CALLS_PER_RUN = 12

#: timeit loops per sample; enough to amortise the timer.
LOOPS = 20_000


def _per_call(fn, repeats=7):
    """Best-of-N per-call seconds for one disabled façade shape."""
    return min(
        timeit.timeit(fn, number=LOOPS) / LOOPS for _ in range(repeats)
    )


def bench_obs_disabled_overhead(benchmark, tmp_path):
    """Time the disabled façade calls; record them against a cached run."""
    assert not obs.enabled(), "benchmark must run with REPRO_OBS unset"

    engine = RunEngine(root=tmp_path)
    engine.run("E6", quick=True, params={"pump_mw": 4.0})

    def cached_run():
        start = time.perf_counter()
        outcome = engine.run("E6", quick=True, params={"pump_mw": 4.0})
        assert outcome.cached
        return time.perf_counter() - start

    run_s = statistics.median(cached_run() for _ in range(20))

    def span_count_pair():
        with obs.span(names.SPAN_CACHE_LOOKUP):
            pass
        obs.count(names.METRIC_CACHE_HIT)

    # Built once: the disabled path returns before it reads the name.
    topic = names.sweep_topic("x")

    def publish_mod():
        obs.publish_mod(topic, {"op": "set", "key": "x", "value": 1})

    def publish_init():
        obs.publish_init(topic, {"x": 1})

    def measure():
        return {
            "span_count_pair_ns": _per_call(span_count_pair) * 1e9,
            "publish_mod_ns": _per_call(publish_mod) * 1e9,
            "publish_init_ns": _per_call(publish_init) * 1e9,
        }

    figures = benchmark.pedantic(measure, rounds=1, iterations=1)

    # The whole per-run façade budget, priced at the slowest call shape.
    worst_ns = max(figures.values())
    overhead_s = worst_ns * 1e-9 * CALLS_PER_RUN
    fraction = overhead_s / run_s if run_s else 0.0
    entry = {
        "cached_run_us": run_s * 1e6,
        "overhead_fraction_of_cached_run": fraction,
        **figures,
    }
    record_trajectory("obs", entry)
    print()
    for key in sorted(entry):
        print(f"  {key:<36} {entry[key]:.4g}")
    assert fraction < 0.05, (
        f"disabled bus overhead is {fraction:.1%} of a cached run "
        "(gate: <5%)"
    )
