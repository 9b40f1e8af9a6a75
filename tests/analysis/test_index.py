"""Archive index: incremental maintenance, queries, corrupt marking."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.index import (
    JOURNAL_FILE,
    ArchiveIndex,
    index_dir,
    parse_where,
    scan_run_dir,
)
from repro.errors import AnalysisError
from repro.experiments.base import ExperimentResult
from repro.runtime import records
from repro.runtime.engine import RunEngine, RunSpec


def synthetic_record(
    experiment_id: str = "E1", metrics: dict | None = None
) -> dict:
    """A driver-free result record for fast archive fabrication."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title="synthetic",
        paper_claim="index fixture",
        headers=["name", "value"],
        rows=[["alpha", 1.0]],
        metrics=dict(metrics or {"car": 13.1}),
    )
    return records.to_record(result)


def archive_run(
    engine: RunEngine,
    experiment_id: str = "E1",
    seed: int = 0,
    params: dict | None = None,
    metrics: dict | None = None,
) -> RunSpec:
    """Archive one synthetic run through the engine's real persistence."""
    spec = RunSpec.make(experiment_id, seed=seed, params=params)
    engine.complete_record(
        spec, synthetic_record(experiment_id, metrics), duration_s=0.01
    )
    return spec


@pytest.fixture
def engine(tmp_path):
    return RunEngine(root=tmp_path / "root")


class TestIncrementalMaintenance:
    def test_journal_entries_appear_without_disk_scan(self, engine):
        spec = archive_run(engine, "E2", seed=3, params={"pump_mw": 4.0})
        index = ArchiveIndex(engine.root).load()  # journal only, no scan
        entry = index.get(spec.run_id())
        assert entry is not None
        assert entry["experiment_id"] == "E2"
        assert entry["seed"] == 3
        assert entry["params"] == {"pump_mw": 4.0}
        assert entry["status"] == "ok"
        assert entry["metrics"]["car"] == 13.1

    def test_refresh_compacts_journal_into_base(self, engine):
        archive_run(engine, "E1")
        index = ArchiveIndex(engine.root).refresh()
        assert len(index) == 1
        assert index.index_path.exists()
        assert index.journal_path.read_text(encoding="utf-8") == ""
        # A fresh object sees the compacted base without the journal.
        assert len(ArchiveIndex(engine.root).load()) == 1

    def test_clean_refresh_writes_nothing(self, engine):
        archive_run(engine, "E1")
        index = ArchiveIndex(engine.root).refresh()
        base_stat = index.index_path.stat()
        journal_stat = index.journal_path.stat()
        # Nothing changed: a second refresh must not rewrite either file
        # (read-only consumers like `repro query` refresh every call).
        again = ArchiveIndex(engine.root).refresh()
        assert len(again) == 1
        assert index.index_path.stat().st_mtime_ns == base_stat.st_mtime_ns
        assert (
            index.journal_path.stat().st_mtime_ns == journal_stat.st_mtime_ns
        )

    def test_runs_archived_after_refresh_are_picked_up(self, engine):
        archive_run(engine, "E1", seed=0)
        ArchiveIndex(engine.root).refresh()
        archive_run(engine, "E1", seed=1)
        index = ArchiveIndex(engine.root).refresh()
        assert len(index) == 2

    def test_refresh_survives_foreign_runs_without_journal(self, engine):
        # A run directory whose index op-log line is missing.
        spec = archive_run(engine, "E3", seed=9)
        journal_path = index_dir(engine.root) / JOURNAL_FILE
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text(
            "".join(line for line in lines if spec.run_id() not in line)
        )
        assert ArchiveIndex(engine.root).load().get(spec.run_id()) is None
        index = ArchiveIndex(engine.root).refresh()
        assert index.get(spec.run_id()) is not None

    def test_prune_tombstones_leave_no_dangling_entries(self, engine):
        import time

        for seed in range(3):
            archive_run(engine, "E1", seed=seed)
            time.sleep(0.01)  # distinct created_unix for prune ordering
        ArchiveIndex(engine.root).refresh()
        removed = engine.prune_runs(1)
        assert len(removed) == 2
        # The journal tombstones alone (no disk scan) drop the entries.
        assert len(ArchiveIndex(engine.root).load()) == 1
        # And a full refresh agrees with the disk.
        assert len(ArchiveIndex(engine.root).refresh()) == 1

    def test_failed_runs_are_indexed_as_failed(self, engine):
        spec = RunSpec.make("E4", seed=7)
        engine.record_failure(
            spec,
            {"type": "ValueError", "message": "boom", "traceback": "tb"},
        )
        index = ArchiveIndex(engine.root).refresh()
        entry = index.get(spec.run_id())
        assert entry["status"] == "failed"
        assert entry["error_type"] == "ValueError"


class TestCorruptMarking:
    def test_unreadable_result_marks_corrupt(self, engine):
        spec = archive_run(engine, "E1")
        run_dir = engine.runs_dir / spec.run_id()
        (run_dir / "result.json").write_text("{torn", encoding="utf-8")
        entry = scan_run_dir(run_dir)
        assert entry["status"] == "corrupt"
        assert "result" in entry["corrupt_reason"]

    def test_missing_npz_marks_corrupt(self, engine):
        result = ExperimentResult(
            experiment_id="E8",
            title="with series",
            paper_claim="fixture",
            headers=["a"],
            rows=[[1]],
            metrics={"visibility": 0.9},
            series=[("fringe", [0.0, 1.0], [1.0, 2.0])],
        )
        spec = RunSpec.make("E8", seed=0)
        engine.complete_record(spec, records.to_record(result), 0.0)
        run_dir = engine.runs_dir / spec.run_id()
        (run_dir / "arrays.npz").unlink()
        entry = scan_run_dir(run_dir)
        assert entry["status"] == "corrupt"
        assert "arrays.npz" in entry["corrupt_reason"]
        # The refresh scan carries the verdict without raising.
        index = ArchiveIndex(engine.root).rebuild()
        assert index.get(spec.run_id())["status"] == "corrupt"

    def test_garbage_npz_marks_corrupt(self, engine):
        result = ExperimentResult(
            experiment_id="E8",
            title="with series",
            paper_claim="fixture",
            headers=["a"],
            rows=[[1]],
            metrics={},
            series=[("fringe", [0.0, 1.0], [1.0, 2.0])],
        )
        spec = RunSpec.make("E8", seed=1)
        engine.complete_record(spec, records.to_record(result), 0.0)
        run_dir = engine.runs_dir / spec.run_id()
        (run_dir / "arrays.npz").write_bytes(b"not a zip archive")
        entry = scan_run_dir(run_dir)
        assert entry["status"] == "corrupt"

    def test_corrupt_runs_excluded_from_ok_queries(self, engine):
        good = archive_run(engine, "E1", seed=0)
        bad = archive_run(engine, "E1", seed=1)
        (engine.runs_dir / bad.run_id() / "result.json").write_text(
            "{", encoding="utf-8"
        )
        index = ArchiveIndex(engine.root).rebuild()
        ok_ids = {e["run_id"] for e in index.query(status="ok")}
        assert ok_ids == {good.run_id()}
        assert index.query(status="corrupt")[0]["run_id"] == bad.run_id()


class TestQueries:
    def test_filters_compose(self, engine):
        archive_run(engine, "E5", seed=0, params={"pump_mw": 2.0})
        archive_run(engine, "E5", seed=0, params={"pump_mw": 6.0})
        archive_run(engine, "E5", seed=1, params={"pump_mw": 2.0})
        archive_run(engine, "E6", seed=0, params={"pump_mw": 2.0})
        index = ArchiveIndex(engine.root).refresh()
        assert len(index.query(experiment="e5")) == 3
        assert len(index.query(experiment="E5", seed=0)) == 2
        assert len(index.query(where={"pump_mw": 2.0})) == 3
        assert len(index.query(experiment="E5", where={"pump_mw": (1, 4)})) == 2
        assert index.query(experiment="E9") == []

    def test_int_float_param_forms_match(self, engine):
        archive_run(engine, "E5", params={"pump_mw": 2})
        index = ArchiveIndex(engine.root).refresh()
        assert len(index.query(where={"pump_mw": 2.0})) == 1

    def test_latest_per_experiment(self, engine):
        import time

        archive_run(engine, "E1", seed=0)
        time.sleep(0.01)
        newest = archive_run(engine, "E1", seed=1)
        index = ArchiveIndex(engine.root).refresh()
        latest = index.latest_per_experiment()
        assert latest["E1"]["run_id"] == newest.run_id()
        assert index.latest("E1")["run_id"] == newest.run_id()

    def test_sweep_groups_identify_axes(self, engine):
        for mw in (2.0, 4.0, 8.0):
            archive_run(
                engine, "E5", params={"pump_mw": mw, "duration_s": 5.0}
            )
        archive_run(engine, "E5", seed=9, params={"pump_mw": 2.0})
        index = ArchiveIndex(engine.root).refresh()
        groups = index.sweep_groups("E5")
        assert len(groups) == 2
        sweep = next(g for g in groups if len(g["entries"]) == 3)
        assert sweep["axes"] == ["pump_mw"]
        assert sweep["fixed"] == {"duration_s": 5.0}
        powers = [e["params"]["pump_mw"] for e in sweep["entries"]]
        assert powers == sorted(powers)

    def test_stats_counts(self, engine):
        archive_run(engine, "E1")
        archive_run(engine, "E2")
        stats = ArchiveIndex(engine.root).refresh().stats()
        assert stats["runs"] == 2
        assert stats["by_experiment"] == {"E1": 1, "E2": 1}
        assert stats["by_status"] == {"ok": 2}


class TestParseWhere:
    def test_exact_range_and_text(self):
        where = parse_where(["pump_mw=2", "dwell_s=1:9", "label=loop"])
        assert where == {
            "pump_mw": 2.0,
            "dwell_s": (1.0, 9.0),
            "label": "loop",
        }

    @pytest.mark.parametrize("bad", ["", "noequals", "x=", "x=a:b"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(AnalysisError):
            parse_where([bad])


# One shared strategy: a small universe of spec shapes so duplicate
# specs (same fingerprint → same run id) genuinely collide.
spec_strategy = st.tuples(
    st.sampled_from(["E1", "E5", "E7"]),
    st.integers(min_value=0, max_value=3),
    st.one_of(
        st.none(),
        st.fixed_dictionaries({"pump_mw": st.sampled_from([2.0, 4.0, 8.0])}),
    ),
)


class TestIndexRoundTripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(specs=st.lists(spec_strategy, min_size=0, max_size=12))
    def test_archive_then_query_returns_exactly_the_matching_set(
        self, tmp_path_factory, specs
    ):
        """Archive N runs → index → every query returns exactly the
        matching subset, and re-indexing (rebuild) is a fixed point."""
        root = tmp_path_factory.mktemp("prop-root")
        engine = RunEngine(root=root)
        expected: dict[str, tuple] = {}
        for experiment, seed, params in specs:
            spec = archive_run(engine, experiment, seed=seed, params=params)
            expected[spec.run_id()] = (experiment, seed, params or {})

        index = ArchiveIndex(root).refresh()
        assert {e["run_id"] for e in index.entries()} == set(expected)

        for experiment in ("E1", "E5", "E7"):
            want = {
                run_id
                for run_id, (exp, _, _) in expected.items()
                if exp == experiment
            }
            got = {
                e["run_id"] for e in index.query(experiment=experiment)
            }
            assert got == want
        for seed in range(4):
            want = {
                run_id
                for run_id, (_, s, _) in expected.items()
                if s == seed
            }
            got = {e["run_id"] for e in index.query(seed=seed)}
            assert got == want
        want = {
            run_id
            for run_id, (_, _, params) in expected.items()
            if params.get("pump_mw") is not None
            and 2.0 <= params["pump_mw"] <= 4.0
        }
        got = {
            e["run_id"] for e in index.query(where={"pump_mw": (2.0, 4.0)})
        }
        assert got == want

        # Stable under re-index: a full rebuild sees the same catalog
        # (modulo the scan-side mtime bookkeeping field).
        def canonical(entries):
            return {
                e["run_id"]: {
                    k: v
                    for k, v in e.items()
                    if k in ("experiment_id", "seed", "quick", "params",
                             "status", "fingerprint", "metrics")
                }
                for e in entries
            }

        before = canonical(index.entries())
        rebuilt = ArchiveIndex(root).rebuild()
        assert canonical(rebuilt.entries()) == before


class TestCrashSafety:
    def test_torn_journal_line_is_skipped(self, engine):
        archive_run(engine, "E1")
        index = ArchiveIndex(engine.root)
        with open(index.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "upsert", "entry": {"run_id"')  # torn
        assert len(index.refresh()) == 1

    def test_garbage_base_file_falls_back_to_scan(self, engine):
        archive_run(engine, "E1")
        index = ArchiveIndex(engine.root)
        index.refresh()
        index.index_path.write_text("not json", encoding="utf-8")
        assert len(ArchiveIndex(engine.root).refresh()) == 1

    def test_entry_metrics_match_result_record(self, engine):
        spec = archive_run(engine, "E2", metrics={"car": 21.5, "rate": 3.0})
        index = ArchiveIndex(engine.root).refresh()
        record = json.loads(
            (engine.runs_dir / spec.run_id() / "result.json").read_text(
                encoding="utf-8"
            )
        )
        assert index.get(spec.run_id())["metrics"] == record["metrics"]


def test_op_log_writers_in_two_processes_fold_in_file_order(tmp_path):
    from repro.analysis import index
    from repro.utils.journal import Journal

    path = index.index_dir(tmp_path) / index.JOURNAL_FILE
    other = Journal(path, index.JOURNAL_MAX_LINES)  # a long-lived process
    other.append([{"op": "upsert", "entry": {"run_id": "a"}}])
    index._op_log.cache_clear()  # this process opens the log afresh
    for run_id in ("x", "y", "b"):
        index.journal_append(tmp_path, {"run_id": run_id})
    other.append([{"op": "remove", "run_id": "b"}])
    loaded = ArchiveIndex(tmp_path).load()
    assert sorted(entry["run_id"] for entry in loaded.entries()) == [
        "a", "x", "y",
    ]
