"""RunEngine behaviour: caching, archiving, sweeps, parallel batches."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime.engine import (
    MANIFEST_FILE,
    RESULT_FILE,
    RunEngine,
    RunSpec,
    default_root,
)
from repro.runtime.scan import LinearScan, ListScan


@pytest.fixture
def engine(tmp_path):
    """A quiet engine rooted in the test's temp directory."""
    return RunEngine(root=tmp_path / "engine-root")


class TestRunSpec:
    def test_normalisation(self):
        spec = RunSpec.make("e6", seed=2, quick=True, params={"b": 1, "a": 2})
        assert spec.experiment_id == "E6"
        assert spec.params == (("a", 2), ("b", 1))
        assert spec.params_dict() == {"a": 2, "b": 1}

    def test_fingerprint_matches_param_order_invariance(self):
        a = RunSpec.make("E6", params={"x": 1.0, "y": 2.0})
        b = RunSpec.make("E6", params={"y": 2.0, "x": 1.0})
        assert a.fingerprint() == b.fingerprint()
        assert a.run_id() == b.run_id()

    def test_label_mentions_everything(self):
        label = RunSpec.make("E6", seed=3, quick=True, params={"x": 1}).label()
        assert "E6" in label and "seed=3" in label and "x=1" in label


class TestDefaultRoot:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNTIME_ROOT", str(tmp_path / "custom"))
        assert default_root() == tmp_path / "custom"


class TestSingleRun:
    def test_cold_run_archives_and_caches(self, engine):
        outcome = engine.run("E6", quick=True)
        assert not outcome.cached
        assert outcome.result.experiment_id == "E6"
        assert outcome.run_dir is not None
        for name in (MANIFEST_FILE, RESULT_FILE, "datasets.json"):
            assert (outcome.run_dir / name).exists(), name
        manifest = json.loads(
            (outcome.run_dir / MANIFEST_FILE).read_text(encoding="utf-8")
        )
        assert manifest["experiment_id"] == "E6"
        assert manifest["quick"] is True

    def test_second_run_is_cache_hit(self, engine):
        cold = engine.run("E6", quick=True)
        warm = engine.run("E6", quick=True)
        assert not cold.cached and warm.cached
        assert warm.result.metrics == pytest.approx(cold.result.metrics)
        assert warm.duration_s < cold.duration_s

    def test_param_override_changes_fingerprint(self, engine):
        base = engine.run("E6", quick=True)
        tuned = engine.run("E6", quick=True, params={"pump_mw": 18.0})
        assert tuned.run_id != base.run_id
        assert not tuned.cached
        assert tuned.result.metric("output_at_pump_uw") > 0

    def test_no_cache_engine_always_recomputes(self, tmp_path):
        engine = RunEngine(root=tmp_path, use_cache=False)
        assert not engine.run("E6", quick=True).cached
        assert not engine.run("E6", quick=True).cached

    def test_unknown_param_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.run("E6", quick=True, params={"bogus": 1})

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunEngine(root=tmp_path, max_workers=0)


class TestSweep:
    def test_sweep_archives_every_point(self, engine):
        scan = LinearScan("pump_mw", 2.0, 20.0, 4)
        outcome = engine.sweep("E6", scan, quick=True)
        assert len(outcome.outcomes) == 4
        assert outcome.num_cached == 0
        for run in outcome.outcomes:
            assert run.run_dir is not None and run.run_dir.exists()
        points, values = outcome.metric_series("output_at_pump_uw")
        assert len(points) == len(values) == 4
        # The transfer curve grows across the threshold.
        assert values[-1] > values[0]

    def test_repeat_sweep_served_from_cache(self, engine):
        scan = LinearScan("pump_mw", 2.0, 20.0, 4)
        engine.sweep("E6", scan, quick=True)
        again = engine.sweep("E6", scan, quick=True)
        assert again.num_cached == 4

    def test_base_params_compose_with_scan(self, engine):
        scan = ListScan("pump_mw", [4.0, 16.0])
        outcome = engine.sweep(
            "E6", scan, quick=True, base_params={"num_points": 12}
        )
        assert all(
            o.spec.params_dict()["num_points"] == 12 for o in outcome.outcomes
        )


class TestBatchPath:
    """The batched-sweep fast path: equivalence, caching, atomicity."""

    def test_batch_sweep_matches_pool_sweep(self, tmp_path):
        scan = ListScan("dwell_s", [5.0, 10.0])
        batched = RunEngine(root=tmp_path / "a").sweep(
            "E7", scan, quick=True, batch=True
        )
        pooled = RunEngine(root=tmp_path / "b").sweep(
            "E7", scan, quick=True, batch=False
        )
        assert [o.result.metrics for o in batched.outcomes] == [
            o.result.metrics for o in pooled.outcomes
        ]
        assert batched.num_cached == 0

    def test_batch_results_cached_per_point(self, engine):
        scan = ListScan("dwell_s", [5.0, 10.0])
        first = engine.sweep("E7", scan, quick=True, batch=True)
        again = engine.sweep("E7", scan, quick=True, batch=True)
        assert first.num_cached == 0
        assert again.num_cached == 2
        # A lone run of one point is served from the batch's entries.
        single = engine.run("E7", quick=True, params={"dwell_s": 5.0})
        assert single.cached

    def test_fully_cached_sweep_never_imports_drivers(self, engine, monkeypatch):
        scan = ListScan("dwell_s", [5.0])
        engine.sweep("E7", scan, quick=True)
        # The auto-mode strategy decision must not run for pure hits
        # (it imports the registry and with it the numpy stack).
        import repro.experiments.registry as registry

        def boom(*args, **kwargs):
            raise AssertionError("registry consulted on a fully cached sweep")

        monkeypatch.setattr(registry, "supports_batch", boom)
        cached = engine.sweep("E7", scan, quick=True)
        assert cached.num_cached == 1

    def test_failing_point_keeps_completed_points(self, engine):
        # Point 2 of 3 is invalid: the batch raises, but point 1 must
        # already be cached and archived (no work discarded).
        scan = ListScan("dwell_s", [5.0, -1.0, 10.0])
        with pytest.raises(ConfigurationError):
            engine.sweep("E7", scan, quick=True, batch=True)
        rerun = engine.sweep(
            "E7", ListScan("dwell_s", [5.0]), quick=True, batch=True
        )
        assert rerun.num_cached == 1

    def test_mixed_experiment_batch_rejected(self, engine):
        specs = [RunSpec.make("E6"), RunSpec.make("E7")]
        with pytest.raises(ConfigurationError):
            engine.run_batch(specs)

    def test_mixed_seed_batch_rejected(self, engine):
        specs = [RunSpec.make("E6", seed=0), RunSpec.make("E6", seed=1)]
        with pytest.raises(ConfigurationError):
            engine.run_batch(specs)


class TestParallel:
    def test_parallel_batch_matches_serial(self, tmp_path):
        specs = [
            RunSpec.make("E4", quick=True),
            RunSpec.make("E6", quick=True),
            RunSpec.make("E7", quick=True),
        ]
        serial = RunEngine(root=tmp_path / "serial").run_specs(specs)
        parallel = RunEngine(root=tmp_path / "parallel", max_workers=3).run_specs(
            specs
        )
        assert [o.spec for o in parallel] == specs
        for s, p in zip(serial, parallel):
            assert p.result.metrics == pytest.approx(s.result.metrics)

    def test_progress_reported(self, tmp_path):
        lines = []
        engine = RunEngine(
            root=tmp_path, max_workers=2, progress=lines.append
        )
        engine.run_specs(
            [RunSpec.make("E4", quick=True), RunSpec.make("E6", quick=True)]
        )
        assert len(lines) == 2
        assert any("[2/2]" in line for line in lines)


class TestFailureManifests:
    """Per-point failures archive their formatted traceback."""

    BAD = {"dwell_s": -1.0}  # E7 rejects negative dwell inside the driver

    def test_serial_failure_archives_traceback_and_reraises(self, engine):
        with pytest.raises(ConfigurationError):
            engine.run("E7", quick=True, params=self.BAD)
        from repro.runtime.engine import RunSpec

        spec = RunSpec.make("E7", quick=True, params=self.BAD)
        manifest = engine.load_manifest(spec.run_id())
        assert manifest["status"] == "failed"
        assert "Traceback" in manifest["error"]["traceback"]
        assert manifest["error"]["type"]

    def test_batch_failure_archives_failing_point(self, engine):
        scan = ListScan("dwell_s", [5.0, -1.0])
        with pytest.raises(ConfigurationError):
            engine.sweep("E7", scan, quick=True, batch=True)
        from repro.runtime.engine import RunSpec

        bad = RunSpec.make("E7", quick=True, params={"dwell_s": -1.0})
        manifest = engine.load_manifest(bad.run_id())
        assert manifest["status"] == "failed"
        assert "Traceback" in manifest["error"]["traceback"]
        # The good point survived (same guarantee as before).
        good = RunSpec.make("E7", quick=True, params={"dwell_s": 5.0})
        assert engine.load_manifest(good.run_id())["status"] == "ok"

    def test_pool_failure_carries_worker_traceback(self, tmp_path):
        from repro.errors import WorkerError
        from repro.runtime.engine import RunSpec

        engine = RunEngine(root=tmp_path, max_workers=2)
        specs = [
            RunSpec.make("E7", quick=True, params={"dwell_s": -1.0}),
            RunSpec.make("E7", quick=True, params={"dwell_s": -2.0}),
        ]
        with pytest.raises(WorkerError) as excinfo:
            engine.run_specs(specs)
        assert "Traceback" in excinfo.value.worker_traceback
        assert "Traceback" in str(excinfo.value)
        # The failed batch left the shared pool usable for the next one.
        good = [
            RunSpec.make("E7", quick=True, params={"dwell_s": 5.0}),
            RunSpec.make("E7", quick=True, params={"dwell_s": 6.0}),
        ]
        outcomes = engine.run_specs(good)
        assert [o.spec for o in outcomes] == good
        assert not any(o.cached for o in outcomes)

    def test_load_run_of_failed_run_mentions_failure(self, engine):
        with pytest.raises(ConfigurationError):
            engine.run("E7", quick=True, params=self.BAD)
        from repro.runtime.engine import RunSpec

        run_id = RunSpec.make("E7", quick=True, params=self.BAD).run_id()
        with pytest.raises(ConfigurationError, match="failed"):
            engine.load_run(run_id)

    def test_failed_spec_recomputes_after_fix(self, engine):
        with pytest.raises(ConfigurationError):
            engine.run("E7", quick=True, params=self.BAD)
        # No cache entry was poisoned: the valid spec runs fresh.
        outcome = engine.run("E7", quick=True, params={"dwell_s": 5.0})
        assert not outcome.cached and outcome.result.metrics


class TestPrune:
    def test_prune_keeps_newest(self, engine):
        for mw in (4.0, 8.0, 12.0):
            engine.run("E6", quick=True, params={"pump_mw": mw})
        before = engine.list_runs()
        assert len(before) == 3
        removed = engine.prune_runs(1)
        assert len(removed) == 2
        survivors = engine.list_runs()
        assert [m["run_id"] for m in survivors] == [before[0]["run_id"]]
        # The cache is untouched: pruned runs still serve as hits.
        assert engine.run("E6", quick=True, params={"pump_mw": 4.0}).cached

    def test_prune_zero_removes_everything(self, engine):
        engine.run("E6", quick=True)
        assert len(engine.prune_runs(0)) == 1
        assert engine.list_runs() == []

    def test_negative_prune_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.prune_runs(-1)


class TestArchiveAccess:
    def test_list_and_load(self, engine):
        outcome = engine.run("E6", quick=True, params={"pump_mw": 10.0})
        manifests = engine.list_runs()
        assert [m["run_id"] for m in manifests] == [outcome.run_id]
        manifest, result = engine.load_run(outcome.run_id)
        assert manifest["params"] == {"pump_mw": 10.0}
        assert result.metric("pump_mw") == 10.0

    def test_unknown_run_id_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.load_run("E6-doesnotexist")
