"""Two engines/daemons sharing one runtime root must not corrupt it.

The satellite stress test: multiple threads drive *separate*
:class:`RunEngine` instances (and separate :class:`JobStore` views)
rooted in the same ``$REPRO_RUNTIME_ROOT``, racing to compute, cache
and archive overlapping specs.  Afterwards every cache entry must
parse, every archived run directory must be internally consistent, and
results must agree across the racers — the guarantees the atomic-write
discipline of :mod:`repro.utils.io` exists to provide.
"""

import json
import threading

import pytest

from repro.runtime import records
from repro.runtime.cache import ResultCache
from repro.runtime.engine import MANIFEST_FILE, RESULT_FILE, RunEngine
from repro.service.store import JobStore

from tests.service.workers import local_workers

#: Overlapping pump powers every thread recomputes (cache-hit races).
POWERS = [2.0, 5.0, 8.0, 11.0]


def _assert_root_consistent(root):
    """Every cache entry parses and every run dir is self-consistent."""
    cache = ResultCache(root / "cache")
    entries = list((root / "cache").glob("*.json"))
    assert entries, "stress test produced no cache entries"
    for path in entries:
        document = json.loads(path.read_text(encoding="utf-8"))
        result = records.from_record(document["record"])
        assert result.metrics, path.name
        assert cache.get(path.stem) is not None
    for manifest_path in (root / "runs").glob(f"*/{MANIFEST_FILE}"):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        run_dir = manifest_path.parent
        assert manifest["run_id"] == run_dir.name
        if manifest.get("status", "ok") == "ok":
            result = records.load(run_dir / RESULT_FILE)
            assert result.experiment_id == manifest["experiment_id"]


class TestConcurrentEngines:
    def test_racing_engines_do_not_corrupt_cache_or_archive(self, tmp_path):
        root = tmp_path / "shared-root"
        errors = []
        collected: dict[int, dict[float, dict]] = {}

        def racer(index):
            engine = RunEngine(root=root)
            metrics = {}
            try:
                for repeat in range(3):
                    for mw in POWERS:
                        outcome = engine.run(
                            "E6", quick=True, params={"pump_mw": mw}
                        )
                        metrics[mw] = dict(outcome.result.metrics)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(f"racer {index}: {error!r}")
            collected[index] = metrics

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        # Determinism across racers: same spec, same metrics.
        reference = collected[0]
        for index, metrics in collected.items():
            for mw, values in metrics.items():
                assert values == pytest.approx(reference[mw]), (index, mw)
        _assert_root_consistent(root)


class TestConcurrentSchedulers:
    def test_two_schedulers_one_root_drain_their_queues(self, tmp_path):
        """Two full service stacks (store + workers) share one root.

        Each stack's workers drain its own store view; the claim markers
        keep a job from running twice even though both stores watch
        the same queue directory.
        """
        root = tmp_path / "shared-root"
        store_a = JobStore(root)
        jobs = [
            store_a.submit("E6", quick=True, params={"pump_mw": float(mw)})[0]
            for mw in range(2, 10)
        ]
        store_a2 = JobStore(root)
        store_b = JobStore(root)  # second process's view of the queue
        with local_workers(store_a2, RunEngine(root=root)), local_workers(
            store_b, RunEngine(root=root)
        ):
            assert store_a2.wait_idle(60.0) and store_b.wait_idle(60.0)
        # Every job completed exactly once somewhere; no claim marker
        # survived; the shared root is uncorrupted.
        fresh = JobStore(root)
        for job in jobs:
            assert fresh.get(job.job_id).status == "done"
        assert not list(fresh.jobs_dir.glob("*.claim"))
        _assert_root_consistent(root)
