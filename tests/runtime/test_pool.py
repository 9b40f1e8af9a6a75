"""The shared process pool: reuse, sizing, worker death, fork."""

import os
from concurrent.futures import BrokenExecutor

import pytest

from repro import obs
from repro.obs import names
from repro.obs.journal import read_events
from repro.runtime import engine as engine_module
from repro.runtime import pool
from repro.runtime.engine import RunEngine, RunSpec


def _spec(pump_mw: float) -> RunSpec:
    return RunSpec.make("E6", quick=True, params={"pump_mw": pump_mw})


@pytest.fixture
def fresh_pool():
    """Start each test without a pool and leave none behind."""
    pool.shutdown()
    yield
    pool.shutdown()


@pytest.fixture
def telemetry(tmp_path, monkeypatch):
    """Telemetry on, journaling under ``tmp_path``; reset afterwards."""
    monkeypatch.delenv(obs.OBS_ENV_VAR, raising=False)
    obs.reset()
    obs.configure(enabled=True)
    yield tmp_path
    obs.reset()


def test_batches_on_one_engine_share_worker_processes(fresh_pool, telemetry):
    engine = RunEngine(root=telemetry, max_workers=2)
    # Worker spans ride home only under an open caller span.
    with obs.span(names.SPAN_ENGINE_BATCH):
        engine.run_specs([_spec(2.0), _spec(3.0)])
        engine.run_specs([_spec(4.0), _spec(5.0)])
    pids = {
        event["attrs"]["pid"]
        for event in read_events(telemetry)
        if event["kind"] == "span"
        and event["name"] == names.SPAN_POOL_EXECUTE
    }
    assert pids
    # Every point of both batches ran in a worker of the live pool.
    assert pids <= set(pool._pool._processes)


def test_size_is_request_capped_at_usable_cpus(fresh_pool):
    assert pool.size() == 0
    pool.submit(_spec(2.0), 1).result()
    assert pool.size() == 1
    pool.submit(_spec(3.0), 64).result()
    assert pool.size() == min(64, pool.usable_cpus())
    # Asking for fewer workers than the live pool has keeps it.
    pool.submit(_spec(4.0), 1).result()
    assert pool.size() == min(64, pool.usable_cpus())


def test_dead_worker_breaks_caller_then_next_submit_recovers(
    fresh_pool, monkeypatch
):
    # Workers fork after the patch, so they inherit the dying compute.
    monkeypatch.setattr(engine_module, "_execute", lambda spec: os._exit(1))
    with pytest.raises(BrokenExecutor):
        pool.submit(_spec(2.0), 1).result()
    monkeypatch.undo()
    record, failure, _, _ = pool.submit(_spec(2.0), 1).result()
    assert failure is None
    assert record is not None


def test_forked_child_sees_no_pool(fresh_pool):
    pool.submit(_spec(2.0), 1).result()
    assert pool.size() == 1
    child = os.fork()
    if child == 0:
        os._exit(0 if pool.size() == 0 else 1)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert pool.size() == 1
