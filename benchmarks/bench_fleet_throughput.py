"""Fleet load generator: fully-cached jobs/sec through a live master.

The distributed analogue of ``bench_service_throughput``: a
broker-only master (``workers=0``) fronts a warmed
result cache while real ``repro runner`` subprocesses hammer the
``runner.claim`` RPC over HTTP.  Every spec is already cached, so each
job's cost is pure coordination — one classify probe under the store
lock, one batched journal append, zero compute — which is exactly the
regime the batched ``JobStore.claim`` + ``submit_batch`` fsync
amortisation was built for.

The bar is adaptive to the CPUs this process may schedule onto:

* ``cores >= 8``: 10k jobs across 4 runner processes must sustain
  **> 1000 jobs/s**;
* ``cores >= 2``: 2k jobs across 2 runners at > 100 jobs/s;
* one core: 500 jobs through a single runner at > 10 jobs/s.

The timer starts at ``submit_batch`` with the runners already
registered and idle-polling, so measured cost is drain-to-terminal
coordination, not Python interpreter boot.  Results append to the
gitignored ``BENCH_fleet.json`` trajectory.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

from conftest import record_trajectory, usable_cpus

from repro import obs
from repro.runtime.engine import RunEngine
from repro.service.api import ExperimentService

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Distinct pump powers used as the spec universe.
POWERS = [float(mw) for mw in range(2, 22)]


def _spawn_runner(url):
    """One ``repro runner`` subprocess attached to the master."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "runner", "--master", url,
         "--workers", "1", "--in-process"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_runners(service, expected, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.fleet.status()["counts"]["alive"] >= expected:
            return
        time.sleep(0.05)
    raise AssertionError(f"{expected} runner(s) never registered")


def bench_fleet_throughput(benchmark, tmp_path):
    """Time a fully-cached batch through the fleet; adaptive jobs/s bar."""
    assert not obs.enabled(), "benchmarks gate the REPRO_OBS-disabled path"
    cores = usable_cpus()
    if cores >= 8:
        total_jobs, runner_count, bar = 10_000, 4, 1000.0
    elif cores >= 2:
        total_jobs, runner_count, bar = 2_000, 2, 100.0
    else:
        total_jobs, runner_count, bar = 500, 1, 10.0

    root = tmp_path / "fleet-root"
    warm_engine = RunEngine(root=root)
    for mw in POWERS:
        warm_engine.run("E6", quick=True, params={"pump_mw": mw})

    service = ExperimentService(root=root, workers=0, use_processes=False)
    host, port = service.start()
    url = f"http://{host}:{port}"
    runners = []
    try:
        runners = [_spawn_runner(url) for _ in range(runner_count)]
        _wait_for_runners(service, runner_count)

        requests = [
            {
                "experiment_id": "E6",
                "quick": True,
                "params": {"pump_mw": POWERS[i % len(POWERS)]},
            }
            for i in range(total_jobs)
        ]

        def workload():
            start = time.perf_counter()
            jobs = service.store.submit_batch(requests)
            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline:
                done = sum(
                    1 for job in service.store.jobs() if job.is_terminal
                )
                if done >= len(jobs):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("fleet failed to drain the batch")
            elapsed = time.perf_counter() - start
            statuses = {job.status for job in service.store.jobs()}
            assert statuses == {"done"}, f"non-done jobs: {statuses}"
            cached = sum(
                job.cached_points for job in service.store.jobs()
            )
            return elapsed, cached

        elapsed, cached = benchmark.pedantic(
            workload, rounds=1, iterations=1
        )
    finally:
        for process in runners:
            process.terminate()
        for process in runners:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
        service.stop()

    rate = total_jobs / elapsed
    fleet = service.fleet.status()
    print()
    print(
        f"fleet drain  {total_jobs:6d} cached jobs in {elapsed:7.3f}s "
        f"= {rate:8.1f} jobs/s  ({runner_count} runner(s), "
        f"{cached} cache hits, {cores} core(s))"
    )
    path = record_trajectory(
        "fleet",
        {
            "jobs": total_jobs,
            "runners": runner_count,
            "cores": cores,
            "seconds": round(elapsed, 4),
            "jobs_per_s": round(rate, 1),
            "cache_hits": cached,
            "expired_leases": fleet["expired_total"],
        },
    )
    print(f"trajectory entry appended to {path.name}")

    assert cached == total_jobs, "a cached job recomputed instead"
    assert rate > bar, (
        f"fleet throughput only {rate:.1f} jobs/s with {runner_count} "
        f"runner(s) on {cores} core(s) (need > {bar:.0f})"
    )
