"""Benchmark harness configuration and the shared trajectory recorder.

Each ``bench_e*.py`` file regenerates one table/figure of the paper at
full statistics, prints the regenerated rows (run pytest with ``-s`` to
see them) and asserts the *shape* of the result against the published
claim.  ``benchmark.pedantic(..., rounds=1)`` is used throughout because
each experiment is itself a long Monte-Carlo run — wall-clock per run is
the meaningful figure, not micro-timing statistics.

The performance benchmarks (service throughput, vectorized core,
analysis index) additionally append one entry per run to a
``BENCH_<name>.json`` trajectory file at the repository root via
:func:`record_trajectory`, each stamped with the git SHA, the schema
version and the process telemetry snapshot — ``repro bench-report``
renders the accumulated trajectories as drift tables.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time

import pytest

#: Bump when the stamped trajectory-entry layout changes.
BENCH_SCHEMA = 1

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def usable_cpus() -> int:
    """CPUs this process may actually schedule onto."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def git_sha() -> str:
    """The repository HEAD commit, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def record_trajectory(
    name: str, entry: dict[str, object]
) -> pathlib.Path:
    """Append one stamped entry to ``BENCH_<name>.json`` at the repo root.

    Every entry carries the schema version, the recording time, the git
    SHA it was measured at, and the process telemetry snapshot (empty
    counters unless the benchmark enabled ``repro.obs``), followed by
    the benchmark's own figures.  Corrupt or non-list files are reset
    rather than crashing the benchmark.
    """
    from repro import obs

    path = REPO_ROOT / f"BENCH_{name}.json"
    trajectory: list[dict[str, object]] = []
    if path.exists():
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(previous, list):
                trajectory = previous
        except ValueError:
            trajectory = []
    stamped: dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "recorded_unix": time.time(),
        "git_sha": git_sha(),
        "metrics": obs.snapshot(),
    }
    stamped.update(entry)
    trajectory.append(stamped)
    path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under the benchmark timer
    and print its regenerated table."""

    def runner(driver, **kwargs):
        result = benchmark.pedantic(
            lambda: driver(**kwargs), rounds=1, iterations=1
        )
        print()
        print(result.to_text())
        return result

    return runner
