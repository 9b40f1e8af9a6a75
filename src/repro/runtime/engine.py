"""The run engine: scheduling, archiving, caching, parallel sweeps.

ARTIQ's master pairs a scheduler with a dataset store; this engine is
the equivalent for the offline reproduction.  Every run is described by
an immutable :class:`RunSpec`, content-addressed through
:mod:`repro.runtime.cache`, archived as a self-contained run directory
(manifest + result record + datasets), and — when a worker pool is
requested — executed across processes on the shared pool of
:mod:`repro.runtime.pool`.

Run-directory layout under the engine root (default ``./repro-runs`` or
``$REPRO_RUNTIME_ROOT``)::

    <root>/cache/<fingerprint>.json     memoised result records
    <root>/runs/<run_id>/manifest.json  spec, timing, fingerprint
    <root>/runs/<run_id>/result.json    lossless ExperimentResult record
    <root>/runs/<run_id>/datasets.json  JSON-native named datasets
    <root>/runs/<run_id>/arrays.npz     array-valued named datasets

Experiment drivers are imported lazily: a fully cached invocation never
imports numpy or the experiments package, which keeps repeated
``repro sweep``/``repro report`` calls near-instant.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import time
import traceback
from collections.abc import Callable, Mapping

from repro import obs
from repro.errors import ConfigurationError, WorkerError
from repro.experiments.base import ExperimentResult
from repro.obs import names as obs_names
from repro.runtime import records
from repro.runtime.cache import ResultCache, fingerprint
from repro.runtime.records import jsonify
from repro.runtime.scan import Scan

#: Environment variable overriding the default engine root directory.
ROOT_ENV_VAR = "REPRO_RUNTIME_ROOT"

#: File names inside a run directory.
MANIFEST_FILE = "manifest.json"
RESULT_FILE = "result.json"


def default_root() -> pathlib.Path:
    """The engine root: ``$REPRO_RUNTIME_ROOT`` or ``./repro-runs``."""
    env = os.environ.get(ROOT_ENV_VAR)
    return pathlib.Path(env) if env else pathlib.Path("repro-runs")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """An immutable description of one experiment run.

    ``params`` is stored as a sorted tuple of items so specs are
    hashable and two specs with the same overrides compare equal
    regardless of insertion order.
    """

    experiment_id: str
    seed: int = 0
    quick: bool = False
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(
        experiment_id: str,
        seed: int = 0,
        quick: bool = False,
        params: Mapping[str, object] | None = None,
    ) -> "RunSpec":
        """Normalised constructor (uppercase id, sorted params)."""
        items = tuple(sorted((params or {}).items()))
        return RunSpec(experiment_id.upper(), int(seed), bool(quick), items)

    def params_dict(self) -> dict[str, object]:
        """The parameter overrides as a plain dict."""
        return dict(self.params)

    def fingerprint(self) -> str:
        """Content-address of this spec (see :mod:`repro.runtime.cache`)."""
        return fingerprint(
            self.experiment_id, self.seed, self.quick, self.params_dict()
        )

    def run_id(self) -> str:
        """Stable, human-scannable id for this spec's run directory."""
        return f"{self.experiment_id}-{self.fingerprint()[:12]}"

    def label(self) -> str:
        """One-line description used in progress messages."""
        parts = [self.experiment_id, f"seed={self.seed}"]
        if self.quick:
            parts.append("quick")
        parts.extend(f"{k}={v}" for k, v in self.params)
        return " ".join(parts)


@dataclasses.dataclass
class RunOutcome:
    """One completed (or cache-served) run."""

    spec: RunSpec
    result: ExperimentResult
    cached: bool
    duration_s: float
    run_id: str
    run_dir: pathlib.Path | None


@dataclasses.dataclass
class SweepOutcome:
    """All runs of one parameter sweep, in scan order."""

    experiment_id: str
    scan_description: dict[str, object]
    points: list[dict[str, object]]
    outcomes: list[RunOutcome]

    @property
    def num_cached(self) -> int:
        """How many points were served from the result cache."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def total_duration_s(self) -> float:
        """Summed per-point compute/lookup time."""
        return sum(o.duration_s for o in self.outcomes)

    def metric_series(self, name: str) -> tuple[list[dict[str, object]], list[float]]:
        """(points, values) for one metric across the sweep."""
        values = [o.result.metric(name) for o in self.outcomes]
        return self.points, values


def _execute(spec: RunSpec) -> tuple[dict[str, object], float]:
    """Run one spec and return its (record, duration).

    Module-level so it pickles into `concurrent.futures` workers; the
    registry import happens here so cached paths never pay for it.
    """
    from repro.experiments.registry import run_experiment

    start = time.perf_counter()
    result = run_experiment(
        spec.experiment_id,
        seed=spec.seed,
        quick=spec.quick,
        params=spec.params_dict(),
    )
    return records.to_record(result), time.perf_counter() - start


#: What :func:`_execute_safe` returns: ``(record, failure, duration,
#: spans)``, with exactly one of ``record`` and ``failure`` set.
WorkerResult = tuple[
    dict[str, object] | None,
    dict[str, str] | None,
    float,
    list[dict[str, object]],
]


def _execute_safe(
    spec: RunSpec,
    obs_ctx: Mapping[str, str] | None = None,
) -> WorkerResult:
    """Pool-worker wrapper of :func:`_execute` capturing failures.

    Returns ``(record, None, duration, spans)`` on success and
    ``(None, failure, duration, spans)`` on any exception, where
    ``failure`` carries the exception type, message and *formatted
    traceback* — the frames themselves cannot cross the process
    boundary, so the text is formatted on the worker side where it
    still exists.  ``spans`` uses the same transport: when the parent
    ships its span context as ``obs_ctx``, the worker times itself
    under a pid-prefixed collector tracer and the finished span
    documents ride home in the tuple for the parent to journal
    (workers never write telemetry files themselves).
    """
    start = time.perf_counter()
    scope = obs.worker_scope(
        obs_ctx, obs_names.SPAN_POOL_EXECUTE, experiment=spec.experiment_id
    )
    try:
        with scope:
            record, duration = _execute(spec)
    except Exception as error:  # noqa: BLE001 - transported to the parent
        failure = _failure_from(error)
        return None, failure, time.perf_counter() - start, scope.spans
    return record, None, duration, scope.spans


def _failure_from(error: BaseException) -> dict[str, str]:
    """The archivable type/message/traceback triple of a live exception."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
    }


class RunEngine:
    """Schedules experiment runs with caching, archiving and parallelism.

    Parameters
    ----------
    root:
        Directory holding the cache and run archive (default: see
        :func:`default_root`).
    use_cache:
        Serve repeated specs from the content-addressed result cache.
    archive:
        Persist each run's datasets/result/manifest under ``runs/``.
        Every archived run (success or failure) also appends one op to
        the archive index's journal, consumed by
        :class:`repro.analysis.index.ArchiveIndex`.
    max_workers:
        Upper bound on the shared pool's worker processes for
        multi-spec batches and sweeps (1 = in-process serial).
    progress:
        Optional ``callable(message: str)`` receiving one line per
        completed run.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        use_cache: bool = True,
        archive: bool = True,
        max_workers: int = 1,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.runs_dir = self.root / "runs"
        self.cache: ResultCache | None = (
            ResultCache(self.root / "cache") if use_cache else None
        )
        self.archive = archive
        self.max_workers = max_workers
        self.progress = progress
        # First engine root of the process hosts the telemetry journal
        # (no-op while telemetry is disabled or already attached).
        obs.attach_root(self.root)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        experiment_id: str,
        seed: int = 0,
        quick: bool = False,
        params: Mapping[str, object] | None = None,
    ) -> RunOutcome:
        """Run (or recall) a single experiment."""
        spec = RunSpec.make(experiment_id, seed=seed, quick=quick, params=params)
        return self.run_specs([spec])[0]

    def run_specs(self, specs: list[RunSpec]) -> list[RunOutcome]:
        """Run a batch of specs, serving cache hits and pooling misses.

        Results come back in input order; misses execute across the
        worker pool when ``max_workers > 1``.
        """
        outcomes, pending, done = self._partition_hits(specs)
        self._run_pending_pool(specs, outcomes, pending, done)
        return [outcome for outcome in outcomes if outcome is not None]

    def _run_pending_pool(
        self,
        specs: list[RunSpec],
        outcomes: list[RunOutcome | None],
        pending: list[int],
        done: int,
        on_outcome: Callable[[int, RunOutcome], None] | None = None,
    ) -> None:
        """Execute cache misses per point, pooled when workers allow.

        Every miss's override names are checked before any point runs,
        so a typo'd name archives nothing.
        """
        if not pending:
            return
        from repro.experiments.registry import check_parameters

        for index in pending:
            spec = specs[index]
            check_parameters(spec.experiment_id, spec.params_dict())
        if self.max_workers > 1 and len(pending) > 1:
            from concurrent.futures import as_completed

            from repro.runtime import pool

            futures = {
                pool.submit(specs[index], self.max_workers): index
                for index in pending
            }
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    outcome = self.finish_worker_result(
                        specs[index], future.result()
                    )
                    outcomes[index] = outcome
                    done += 1
                    if on_outcome is not None:
                        on_outcome(index, outcome)
                    self._report(done, len(specs), outcome)
            finally:
                # The pool is shared: points of a failed batch that have
                # not started must not run on into other callers' work.
                for future in futures:
                    future.cancel()
        else:
            for index in pending:
                outcome = self.compute(specs[index])
                outcomes[index] = outcome
                done += 1
                if on_outcome is not None:
                    on_outcome(index, outcome)
                self._report(done, len(specs), outcome)

    def sweep(
        self,
        experiment_id: str,
        scan: Scan,
        seed: int = 0,
        quick: bool = False,
        base_params: Mapping[str, object] | None = None,
    ) -> SweepOutcome:
        """Run an experiment once per scan point.

        ``base_params`` are fixed overrides applied to every point; scan
        values win on collision.  Cache misses run as in
        :meth:`run_specs`: in-process one after another, or across the
        shared pool when ``max_workers > 1``.
        """
        points = list(scan)
        specs = []
        for point in points:
            merged = dict(base_params or {})
            merged.update(point)
            specs.append(
                RunSpec.make(experiment_id, seed=seed, quick=quick, params=merged)
            )
        publisher = None
        on_outcome = None
        if obs.enabled():
            # Lazy import: repro.service imports this module, so the
            # publisher (which only needs the obs façade) is pulled in
            # at sweep time rather than at engine-import time.
            from repro.service.datasets import SweepPublisher
            from repro.service.jobs import DONE, FAILED

            publisher = SweepPublisher.for_local(
                experiment_id,
                scan.describe(),
                seed,
                quick,
                base_params,
                total=len(points),
            )
        if publisher is not None:

            def on_outcome(index: int, outcome: RunOutcome) -> None:
                publisher.point(
                    index,
                    points[index],
                    dict(outcome.result.metrics),
                    run_id=outcome.run_id,
                    cached=outcome.cached,
                )

        sweep_start = time.perf_counter()
        try:
            with obs.span(
                obs_names.SPAN_ENGINE_SWEEP,
                experiment=experiment_id.upper(),
                points=len(points),
            ) as sweep_span:
                outcomes, pending, done = self._partition_hits(
                    specs, on_outcome=on_outcome
                )
                self._run_pending_pool(
                    specs, outcomes, pending, done, on_outcome=on_outcome
                )
                sweep_span.set(cached=len(points) - len(pending))
        except Exception:
            # The sweep's topic is journaled: it must reach a terminal
            # status, or offline dashboards replay it as running forever.
            if publisher is not None:
                publisher.finish(FAILED)
            raise
        elapsed = time.perf_counter() - sweep_start
        if points and elapsed > 0:
            obs.gauge(
                obs_names.METRIC_MC_POINTS_PER_SECOND,
                len(points) / elapsed,
                experiment=experiment_id.upper(),
            )
        if publisher is not None:
            publisher.finish(DONE)
        return SweepOutcome(
            experiment_id=experiment_id.upper(),
            scan_description=scan.describe(),
            points=points,
            outcomes=[o for o in outcomes if o is not None],
        )

    def compute(self, spec: RunSpec) -> RunOutcome:
        """Execute one spec in-process (no cache consult) and persist it.

        The serial path's building block: on failure the formatted
        traceback is archived as a failure manifest before the original
        exception — type intact — continues to the caller.
        """
        with obs.span(
            obs_names.SPAN_ENGINE_RUN,
            experiment=spec.experiment_id,
            run_id=spec.run_id(),
        ):
            try:
                record, duration = _execute(spec)
            except Exception as error:  # noqa: BLE001 - re-raised unchanged
                self.record_failure(spec, _failure_from(error))
                raise
            return self.complete_record(spec, record, duration)

    def finish_worker_result(
        self, spec: RunSpec, result: WorkerResult
    ) -> RunOutcome:
        """Persist what :func:`_execute_safe` returned for ``spec``.

        The parent-side half of every pooled compute: the worker's
        spans are journaled, then a failure is archived as a failure
        manifest and raised as :class:`WorkerError` carrying the
        worker's formatted traceback (its frames are gone), and a
        record is archived and cached.
        """
        record, failure, duration, spans = result
        obs.replay(spans)
        if failure is not None:
            self.record_failure(spec, failure, duration)
            raise WorkerError(
                f"{spec.label()} failed in a pool worker: "
                f"{failure['type']}: {failure['message']}\n"
                f"{failure['traceback']}",
                worker_traceback=failure["traceback"],
            )
        assert record is not None
        return self.complete_record(spec, record, duration)

    def run_all(self, seed: int = 0, quick: bool = True) -> dict[str, RunOutcome]:
        """Run every registered experiment; returns id → outcome."""
        from repro.experiments.registry import EXPERIMENTS

        keys = sorted(EXPERIMENTS)
        specs = [RunSpec.make(key, seed=seed, quick=quick) for key in keys]
        outcomes = self.run_specs(specs)
        return dict(zip(keys, outcomes))

    # ------------------------------------------------------------------
    # Archive
    # ------------------------------------------------------------------
    def list_runs(self) -> list[dict[str, object]]:
        """Manifests of every archived run, newest first."""
        manifests = []
        if self.runs_dir.exists():
            for path in self.runs_dir.glob(f"*/{MANIFEST_FILE}"):
                try:
                    manifest = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    continue
                manifests.append(manifest)
        manifests.sort(key=lambda m: m.get("created_unix", 0.0), reverse=True)
        return manifests

    def load_manifest(self, run_id: str) -> dict[str, object]:
        """The manifest of one archived run id (success or failure)."""
        manifest_path = self.runs_dir / run_id / MANIFEST_FILE
        if not manifest_path.exists():
            known = sorted(m.get("run_id", "?") for m in self.list_runs())
            raise ConfigurationError(
                f"no archived run {run_id!r}; available: {known}"
            )
        try:
            return json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"archived run {run_id!r} has an unreadable manifest: {error}"
            ) from error

    def load_run(
        self, run_id: str
    ) -> tuple[dict[str, object], ExperimentResult]:
        """(manifest, result) for one archived run id."""
        manifest = self.load_manifest(run_id)
        if manifest.get("status") == "failed":
            error = manifest.get("error", {})
            raise ConfigurationError(
                f"archived run {run_id!r} failed "
                f"({error.get('type', '?')}: {error.get('message', '?')}); "
                "inspect it with 'repro archive' or requeue it"
            )
        try:
            result = records.load(self.runs_dir / run_id / RESULT_FILE)
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise ConfigurationError(
                f"archived run {run_id!r} is unreadable "
                f"(corrupt or written by an incompatible version): {error}"
            ) from error
        return manifest, result

    def prune_runs(self, keep: int) -> list[str]:
        """Delete all but the newest ``keep`` run directories.

        Returns the removed run ids, oldest first.  The result cache is
        untouched — pruning reclaims archive disk without forgetting
        results (``repro cache clear`` handles the cache side).  Pruned
        runs are tombstoned out of the archive index so it never holds
        dangling entries.
        """
        if keep < 0:
            raise ConfigurationError(f"--prune needs N >= 0, got {keep}")
        removed = []
        for manifest in self.list_runs()[keep:][::-1]:
            run_id = str(manifest.get("run_id", ""))
            if not run_id:
                continue
            shutil.rmtree(self.runs_dir / run_id, ignore_errors=True)
            removed.append(run_id)
        if removed and self.archive:
            from repro.analysis.index import journal_remove

            for run_id in removed:
                journal_remove(self.root, run_id)
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _partition_hits(
        self,
        specs: list[RunSpec],
        on_outcome: Callable[[int, RunOutcome], None] | None = None,
    ) -> tuple[list[RunOutcome | None], list[int], int]:
        """Serve cache hits; return (outcomes, pending indices, done).

        Shared by :meth:`run_specs` and :meth:`sweep` so hit handling
        (reporting, archive-on-hit) cannot diverge between them.  It never
        imports the registry: a fully cached call must not pull in the
        driver stack (numpy — see the lazy-import invariant in DESIGN.md).
        """
        outcomes: list[RunOutcome | None] = [None] * len(specs)
        pending: list[int] = []
        done = 0
        for index, spec in enumerate(specs):
            hit = self.lookup(spec)
            if hit is not None:
                outcomes[index] = hit
                done += 1
                if on_outcome is not None:
                    on_outcome(index, hit)
                self._report(done, len(specs), hit)
            else:
                pending.append(index)
        return outcomes, pending, done

    def lookup(self, spec: RunSpec) -> RunOutcome | None:
        """A cache-served outcome for ``spec``, or None on a miss.

        Public because the fleet coordinator serves every job point's
        cache consult through it, whichever runner holds the job.
        """
        if self.cache is None:
            return None
        start = time.perf_counter()
        key = spec.fingerprint()
        with obs.span(
            obs_names.SPAN_CACHE_LOOKUP, experiment=spec.experiment_id
        ) as span:
            result = self.cache.get(key)
            span.set(hit=result is not None)
        obs.observe(
            obs_names.METRIC_CACHE_LOOKUP_SECONDS,
            time.perf_counter() - start,
        )
        if result is None:
            return None
        run_id = spec.run_id()
        run_dir = self.runs_dir / run_id
        if not run_dir.exists() and self.archive:
            self._archive(spec, result, duration_s=0.0, cached=True)
        return RunOutcome(
            spec=spec,
            result=result,
            cached=True,
            duration_s=time.perf_counter() - start,
            run_id=run_id,
            run_dir=run_dir if run_dir.exists() else None,
        )

    def complete_record(
        self, spec: RunSpec, record: dict[str, object], duration_s: float
    ) -> RunOutcome:
        """Archive and cache one freshly computed run record.

        Records computed elsewhere (a pool worker, a fleet runner) come
        through here too, keeping all persistence in this process — the
        run-engine invariant that workers only compute (see DESIGN.md).
        """
        result = records.from_record(record)
        run_dir: pathlib.Path | None = None
        if self.archive:
            run_dir = self._archive(spec, result, duration_s, cached=False)
        if self.cache is not None:
            self.cache.put(spec.fingerprint(), result, duration_s)
        obs.count(obs_names.METRIC_ENGINE_RUNS)
        obs.observe(obs_names.METRIC_ENGINE_RUN_SECONDS, duration_s)
        obs.event(
            obs_names.EVENT_RUN_FINISHED,
            {
                "run_id": spec.run_id(),
                "experiment": spec.experiment_id,
                "cached": False,
                "duration_s": duration_s,
            },
        )
        return RunOutcome(
            spec=spec,
            result=result,
            cached=False,
            duration_s=duration_s,
            run_id=spec.run_id(),
            run_dir=run_dir,
        )

    def record_failure(
        self,
        spec: RunSpec,
        failure: Mapping[str, str],
        duration_s: float = 0.0,
    ) -> pathlib.Path | None:
        """Archive a failure manifest (status, formatted traceback).

        ``failure`` holds ``type``/``message``/``traceback`` strings —
        see :func:`_execute_safe`.  The run directory gets a manifest
        but no result record, so ``list_runs`` surfaces the failure and
        ``repro status``/``repro archive`` can show the traceback
        instead of silently dropping it.  No cache entry is written:
        the spec recomputes on its next submission.
        """
        obs.count(obs_names.METRIC_ENGINE_FAILURES)
        obs.event(
            obs_names.EVENT_RUN_FAILED,
            {
                "run_id": spec.run_id(),
                "experiment": spec.experiment_id,
                "error_type": str(failure.get("type", "?")),
            },
        )
        if not self.archive:
            return None
        run_dir = self.runs_dir / spec.run_id()
        self._write_manifest(
            run_dir,
            spec,
            duration_s=duration_s,
            cached=False,
            status="failed",
            error=dict(failure),
        )
        self._index_upsert(
            spec,
            {},
            "failed",
            duration_s,
            cached=False,
            run_dir=run_dir,
            error_type=str(failure.get("type", "?")),
        )
        return run_dir

    def _archive(
        self,
        spec: RunSpec,
        result: ExperimentResult,
        duration_s: float,
        cached: bool,
    ) -> pathlib.Path:
        """Write the run directory (manifest, result record, datasets)."""
        from repro.runtime.datasets import store_from_result

        run_dir = self.runs_dir / spec.run_id()
        with obs.span(
            obs_names.SPAN_ENGINE_ARCHIVE, run_id=spec.run_id()
        ):
            run_dir.mkdir(parents=True, exist_ok=True)
            records.save(result, run_dir / RESULT_FILE)
            store_from_result(result).save(run_dir)
            self._write_manifest(
                run_dir, spec, duration_s=duration_s, cached=cached, status="ok"
            )
            self._index_upsert(
                spec, result.metrics, "ok", duration_s, cached, run_dir
            )
        return run_dir

    def _index_upsert(
        self,
        spec: RunSpec,
        metrics: Mapping[str, object],
        status: str,
        duration_s: float,
        cached: bool,
        run_dir: pathlib.Path,
        error_type: str | None = None,
    ) -> None:
        """Append one archive-index journal op for a just-archived run.

        O(1) per run (one fsynced line) so archiving stays flat; index
        maintenance must never break a run, so failures only surface
        through the progress callback.
        """
        from repro.analysis.index import (
            entry_from_outcome,
            journal_append,
            payload_signature,
        )

        entry = entry_from_outcome(
            spec, metrics, status, duration_s, cached, error_type=error_type
        )
        try:
            entry["manifest_mtime_ns"] = (
                (run_dir / MANIFEST_FILE).stat().st_mtime_ns
            )
            entry["payload_sig"] = payload_signature(run_dir)
            journal_append(self.root, entry)
        except OSError as error:  # index is derived state; the run is safe
            if self.progress is not None:
                self.progress(f"index update failed for {spec.run_id()}: {error}")

    def _write_manifest(
        self,
        run_dir: pathlib.Path,
        spec: RunSpec,
        duration_s: float,
        cached: bool,
        status: str,
        error: dict[str, str] | None = None,
    ) -> None:
        """Atomically write a run manifest (success or failure shape)."""
        from repro.utils.io import atomic_write_text

        manifest: dict[str, object] = {
            "run_id": spec.run_id(),
            "fingerprint": spec.fingerprint(),
            "experiment_id": spec.experiment_id,
            "seed": spec.seed,
            "quick": spec.quick,
            "params": {k: jsonify(v) for k, v in spec.params},
            "duration_s": duration_s,
            "from_cache": cached,
            "status": status,
            "created_unix": time.time(),
        }
        if error is not None:
            manifest["error"] = error
        atomic_write_text(
            run_dir / MANIFEST_FILE,
            json.dumps(manifest, indent=2, sort_keys=True),
        )

    def _report(self, done: int, total: int, outcome: RunOutcome) -> None:
        """Emit one progress line through the configured callback."""
        if self.progress is None:
            return
        status = "cached" if outcome.cached else f"{outcome.duration_s:.2f}s"
        self.progress(f"[{done}/{total}] {outcome.spec.label()} ({status})")
