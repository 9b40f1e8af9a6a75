"""The benchmark's arithmetic: percentiles, failure share, job outcomes, CPU time."""

from __future__ import annotations

import os
import pathlib
import time
from collections.abc import Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: int) -> float | None:
    """The nearest-rank ``q``-th percentile, or None when it is not reportable.

    A percentile needs at least :data:`MIN_BEYOND` samples above its
    rank; with fewer, the value would be one noisy sample, so it is
    withheld.
    """
    n = len(samples)
    rank = max(1, -(-q * n // 100))  # ceil(q n / 100) in exact integers
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


#: The tail percentile reported as ``job_latency_tail_ms``: reportable
#: from 100 samples, and moved less than p99 by one stall of the host.
TAIL_PERCENTILE = 90


def tail(samples: Sequence[float]) -> float:
    """The tail percentile when it is reportable, otherwise the slowest sample."""
    value = percentile(samples, TAIL_PERCENTILE)
    return max(samples) if value is None else value


def failed_frac(outcomes: Sequence[dict[str, object]]) -> float:
    """Failed, refused or timed-out jobs as a share of attempted jobs."""
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if o["status"] != "done") / len(outcomes)


def run_job(client, request: dict[str, object], timeout_s: float) -> dict[str, object]:
    """Submit one job, wait for it, and return its outcome.

    Latency runs from the start of the submit call to the return of the
    wait.  Any exception — a 503 the client gave up retrying, a wait
    that timed out, a dropped connection — makes the job a failure
    rather than stopping the load generator.
    """
    start = time.perf_counter()
    try:
        job = client.submit(dedupe=False, **request)
        document = client.wait(job["job_id"], timeout=timeout_s)
    except Exception as error:  # noqa: BLE001 - counted as a failed job
        return {
            "status": "error",
            "error": f"{type(error).__name__}: {error}",
            "latency_s": time.perf_counter() - start,
        }
    return {
        "status": document.get("status"),
        "latency_s": time.perf_counter() - start,
        "end": time.perf_counter(),
        "cached_points": document.get("cached_points"),
        "wait_s": document.get("wait_s"),
        "run_s": document.get("run_s"),
        "record": document.get("record"),
    }


def tree_cpu_s(pid: int) -> float:
    """CPU time (user + system) of process ``pid`` and all its descendants.

    Counts the live descendants read from ``/proc`` and, through each
    process's ``cutime``/``cstime``, the children it has already reaped,
    so work moved into a worker pool still counts as the program's.
    """
    parents: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while we looked
            continue
        child = int(stat.parent.name)
        parents[child] = int(fields[1])
        ticks[child] = sum(int(field) for field in fields[11:15])
    tree, frontier = {pid}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent and child not in tree:
                tree.add(child)
                frontier.append(child)
    return sum(ticks.get(member, 0) for member in tree) / os.sysconf("SC_CLK_TCK")
