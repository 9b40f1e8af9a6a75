"""The campaign workload: a ``repro serve`` daemon under a closed loop of clients.

``campaign-cached`` replays a small universe of E6 quick specs whose
results are cached before timing starts, so every job is a cache hit
and the physics does no work: queue persistence, the telemetry journal,
cache reads, scheduling and RPC do everything.  The daemon runs with
shipped defaults (process pool, telemetry on, dispatch auto, no
runners).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import stats
import tracer as tracing

#: Scheduler workers of the daemon and client threads of the load generator.
WORKERS = 2
CLIENTS = 2

#: Daemon spawns per run; ``setup_s`` is their median spawn-to-healthy time.
SETUP_SPAWNS = 7

#: Distinct specs the load generator cycles through.
UNIVERSE = 8

#: Seconds of discarded closed-loop traffic before the measurement window.
WARMUP_S = 1.5

#: A job not finished within this many seconds counts as failed.
JOB_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` subprocess on an engine root."""

    def __init__(self, root: pathlib.Path, env: dict[str, str], log, snapshots=None):
        self.root = root
        self.snapshots = snapshots
        command = [sys.executable]
        if snapshots is None:
            command += ["-m", "repro"]
        else:
            command += [str(pathlib.Path(__file__).with_name("serve_traced.py"))]
            command += ["--snapshots", str(snapshots), "--"]
        command += ["serve", "--workers", str(WORKERS), "--archive-dir", str(root)]
        self.command = command
        self.env = env
        self.log = log
        self.process: subprocess.Popen | None = None
        self.client = None
        self._taken = 0

    def start(self) -> float:
        """Spawn the daemon; returns seconds from spawn to a healthy ``health``."""
        from repro.service.client import ServiceClient

        service_file = self.root / "queue" / "service.json"
        start = time.perf_counter()
        # A session of its own, so a daemon that will not stop is killed
        # together with its pool workers.
        self.process = subprocess.Popen(
            self.command,
            env=self.env,
            stdout=self.log,
            stderr=self.log,
            start_new_session=True,
        )
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            try:
                document = json.loads(service_file.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                time.sleep(0.005)
                continue
            if document.get("pid") != self.process.pid:
                time.sleep(0.005)
                continue
            client = ServiceClient(
                f"http://{document['host']}:{document['port']}", timeout=10.0
            )
            if client.health().get("ok"):
                self.client = client
                return time.perf_counter() - start
        raise RuntimeError("daemon did not become healthy within 60 s")

    @property
    def url(self) -> str:
        return self.client.url

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``), in MiB."""
        status = pathlib.Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """CPU time the daemon and its pool workers have used so far."""
        return stats.tree_cpu_s(self.process.pid)

    def snapshot(self) -> dict[str, object]:
        """Ask the traced daemon for its tracer totals and read them."""
        self._taken += 1
        path = pathlib.Path(self.snapshots) / f"snapshot-{self._taken}.json"
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced daemon wrote no snapshot")
            time.sleep(0.01)
        return json.loads(path.read_text(encoding="utf-8"))

    def stop(self) -> None:
        """Shut the daemon down over RPC and wait for it (kill as a last resort)."""
        if self.process is None:
            return
        try:
            if self.client is None:
                raise subprocess.TimeoutExpired(self.command, 0)
            self.client.shutdown()
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        self.process = None


class Specs:
    """The seeded request stream: E6 quick specs over a universe of pump powers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.universe: list[float] = []
        while len(self.universe) < UNIVERSE:
            pump = round(rng.uniform(1.0, 29.0), 3)
            if pump not in self.universe:
                self.universe.append(pump)

    def request(self, pump_mw: float) -> dict[str, object]:
        return {
            "experiment": "E6",
            "seed": self.seed,
            "quick": True,
            "params": {"pump_mw": pump_mw},
        }

    def stream(self, client_index: int):
        """An endless request iterator for one client thread."""
        rng = random.Random(f"{self.seed}/{client_index}")
        while True:
            yield self.request(rng.choice(self.universe))


def closed_loop(url: str, specs: Specs, seconds: float) -> tuple[list[dict], float]:
    """``CLIENTS`` threads each submit-and-wait back to back for ``seconds``."""
    from repro.service.client import ServiceClient

    outcomes: list[dict] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop(index: int) -> None:
        client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        requests = specs.stream(index)
        while time.perf_counter() < deadline:
            request = next(requests)
            outcome = stats.run_job(client, request, JOB_TIMEOUT_S)
            outcome["pump_mw"] = request["params"]["pump_mw"]
            with lock:
                outcomes.append(outcome)

    threads = [
        threading.Thread(target=client_loop, args=(index,)) for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((o.get("end", start) for o in outcomes), default=start)
    return outcomes, max(end, deadline) - start


def measure(
    seed: int,
    seconds: float,
    workdir: pathlib.Path,
    env: dict[str, str],
    traced: bool = False,
    spawns: int = SETUP_SPAWNS,
) -> dict[str, object]:
    """Set up a daemon, warm it, run the measurement window, check outputs."""
    root = workdir / "root"
    snapshots = workdir / "snapshots" if traced else None
    if snapshots is not None:
        snapshots.mkdir(parents=True)
    specs = Specs(seed)
    with open(workdir / "daemon.log", "ab") as log:
        setup = []
        daemon = None
        try:
            for _ in range(spawns):
                if daemon is not None:
                    daemon.stop()
                daemon = Daemon(root, env, log, snapshots)
                setup.append(daemon.start())
            warm(daemon, specs)
            client_tracer = None
            if traced:
                client_tracer = tracing.Tracer()
                tracing.install_client(client_tracer)
                server_start = daemon.snapshot()
                client_start = client_tracer.snapshot()
            cpu_start = daemon.cpu_s()
            outcomes, elapsed = closed_loop(daemon.url, specs, seconds)
            cpu_s = daemon.cpu_s() - cpu_start
            document: dict[str, object] = {}
            if traced:
                document["server"] = tracing.diff(server_start, daemon.snapshot())
                document["client"] = tracing.diff(
                    client_start, client_tracer.snapshot()
                )
            rss = daemon.peak_rss_mb()
        finally:
            if daemon is not None:
                daemon.stop()
    if not outcomes:
        raise RuntimeError("the closed loop attempted no job")
    latencies = [o["latency_s"] for o in outcomes]
    done = [o for o in outcomes if o["status"] == "done"]
    document.update(
        {
            "setup_samples_s": setup,
            "elapsed_s": elapsed,
            "attempted": len(outcomes),
            "failed": len(outcomes) - len(done),
            "failed_frac": stats.failed_frac(outcomes),
            "jobs_per_s": len(done) / elapsed,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": stats.tail(latencies) * 1e3,
            "peak_rss_mb": rss,
            "cpu_ms_per_job": cpu_s / max(1, len(done)) * 1e3,
            "wait_ms_p50": _median_ms([o["wait_s"] for o in done]),
            "run_ms_p50": _median_ms([o["run_s"] for o in done]),
            "errors": sorted({o["error"] for o in outcomes if "error" in o})[:5],
            "checks": check(specs, outcomes, workdir / "check"),
        }
    )
    return document


def _median_ms(seconds: list[float]) -> float:
    """The median in milliseconds (0 when every job failed)."""
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def warm(daemon: Daemon, specs: Specs) -> None:
    """Fill the cache and let the daemon reach steady state.

    The first submission imports the driver stack into the daemon and
    the first miss starts its process pool; neither belongs in the
    measurement window.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(daemon.url, timeout=JOB_TIMEOUT_S)
    for pump in specs.universe:
        outcome = stats.run_job(client, specs.request(pump), JOB_TIMEOUT_S)
        if outcome["status"] != "done":
            raise RuntimeError(f"warm-up job failed: {outcome}")
    closed_loop(daemon.url, specs, WARMUP_S)


def check(
    specs: Specs, outcomes: list[dict], check_root: pathlib.Path
) -> dict[str, bool]:
    """Every job ends done as a cache hit with the record a fresh run gives."""
    from repro.runtime import records
    from repro.runtime.engine import RunEngine

    engine = RunEngine(root=check_root)
    expected = {}
    for pump in specs.universe:
        outcome = engine.run("E6", seed=specs.seed, quick=True, params={"pump_mw": pump})
        expected[pump] = json.loads(json.dumps(records.to_record(outcome.result)))
    return {
        "attempted": bool(outcomes),
        "all_done": all(o["status"] == "done" for o in outcomes),
        "all_cache_hits": all(o.get("cached_points") == 1 for o in outcomes),
        "records_match_in_process": all(
            o.get("record") == expected[o["pump_mw"]] for o in outcomes
        ),
    }
