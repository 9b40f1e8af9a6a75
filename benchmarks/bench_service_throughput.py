"""Daemon throughput: jobs/sec through the experiment service's workers.

Two workloads, mirroring the paper's campaign mix:

- **fully cached** — every submitted spec is already in the result
  cache, so a job is served inline at a worker's claim: a probe of its
  cache entry, one line of the claim's batched journal append and the
  job's snapshot.  This is the many-clients-replaying-sweeps regime and
  must sustain **≥ 50 jobs/s** (the PR's acceptance bar).
- **mixed** — half cache hits, half real ``quick`` computes, the
  steady-state of a live campaign.

Both go through the full persistent path (queue journal, snapshots,
claim markers) and the daemon's own workers — an in-process fleet
runner on a :class:`FleetCoordinator`, as ``repro serve`` builds them;
only the HTTP layer is bypassed, since wire overhead is not what this
benchmark gates.  Results append a trajectory entry to
``BENCH_service.json`` in the repository root.
"""

from __future__ import annotations

import time

from conftest import record_trajectory

from repro import obs
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.runner import FleetRunner
from repro.runtime.engine import RunEngine
from repro.service.store import JobStore

#: Distinct pump powers used as the spec universe.
POWERS = [float(mw) for mw in range(2, 22)]

#: Jobs per workload (several passes over the spec universe).
CACHED_JOBS = 100
MIXED_JOBS = 40


def _drained_store(root, jobs, workers=4):
    """Submit ``jobs`` specs, drain them, return elapsed seconds."""
    store = JobStore(root)
    fleet = FleetCoordinator(store, RunEngine(root=root))
    runner = FleetRunner(
        "in-process", workers=workers, use_processes=False, client=fleet
    )
    start = time.perf_counter()
    for params in jobs:
        store.submit("E6", quick=True, params=params, dedupe=False)
    runner.start()
    assert store.wait_idle(300.0), "queue failed to drain"
    elapsed = time.perf_counter() - start
    fleet.stop()
    runner.stop()
    done = [job for job in store.jobs() if job.status == "done"]
    assert len(done) == len(jobs), f"{len(done)}/{len(jobs)} jobs done"
    return elapsed, sum(job.cached_points for job in done)


def bench_service_throughput(benchmark, tmp_path):
    """Time the cached and mixed queues; assert the ≥50 jobs/s bar."""
    # Throughput is measured on the telemetry-disabled fast path: every
    # obs call must reduce to one attribute check, and the ≥50 jobs/s
    # bar doubles as the regression gate for that no-op overhead.
    assert not obs.enabled(), "benchmarks gate the REPRO_OBS-disabled path"
    entries: dict[str, dict[str, float]] = {}

    # --- fully cached: warm every spec first --------------------------
    cached_root = tmp_path / "cached"
    warm_engine = RunEngine(root=cached_root)
    for mw in POWERS:
        warm_engine.run("E6", quick=True, params={"pump_mw": mw})
    cached_specs = [
        {"pump_mw": POWERS[i % len(POWERS)]} for i in range(CACHED_JOBS)
    ]

    def cached_workload():
        elapsed, hits = _drained_store(cached_root, cached_specs)
        return elapsed, hits

    (elapsed, hits) = benchmark.pedantic(
        cached_workload, rounds=1, iterations=1
    )
    cached_rate = CACHED_JOBS / elapsed
    entries["fully_cached"] = {
        "jobs": CACHED_JOBS,
        "seconds": round(elapsed, 4),
        "jobs_per_s": round(cached_rate, 1),
        "cache_hits": hits,
    }

    # --- mixed: half the spec universe is cold ------------------------
    mixed_root = tmp_path / "mixed"
    mixed_engine = RunEngine(root=mixed_root)
    for mw in POWERS[::2]:
        mixed_engine.run("E6", quick=True, params={"pump_mw": mw})
    mixed_specs = [
        {"pump_mw": POWERS[i % len(POWERS)]} for i in range(MIXED_JOBS)
    ]
    mixed_elapsed, mixed_hits = _drained_store(mixed_root, mixed_specs)
    entries["mixed"] = {
        "jobs": MIXED_JOBS,
        "seconds": round(mixed_elapsed, 4),
        "jobs_per_s": round(MIXED_JOBS / mixed_elapsed, 1),
        "cache_hits": mixed_hits,
    }

    print()
    for name, entry in entries.items():
        print(
            f"{name:14s} {entry['jobs']:4d} jobs in "
            f"{entry['seconds']:7.3f}s = {entry['jobs_per_s']:7.1f} jobs/s "
            f"({entry['cache_hits']} cache hits)"
        )
    path = record_trajectory("service", {"workloads": entries})
    print(f"trajectory entry appended to {path.name}")

    assert cached_rate >= 50.0, (
        f"fully cached throughput only {cached_rate:.1f} jobs/s (need 50)"
    )
    assert entries["mixed"]["jobs_per_s"] > 0.0
