"""The analysis pipeline runner: cached, incremental, cancellable.

A *pipeline* is a named, ordered tuple of analyzer ids.  Running one:

1. refreshes the archive index (journal fold + stat scan);
2. selects each analyzer's input runs (``status == ok`` entries of its
   declared experiments);
3. content-addresses the invocation on
   ``sha256(analyzer id, version, input run digests)`` and serves a
   cache hit from ``<root>/analysis/cache/`` when the archive hasn't
   changed — re-running ``repro analyze`` on an unchanged archive is a
   100 % cache hit with zero analyzer compute (and zero numpy import);
4. computes misses and persists their outputs atomically.

The runner streams: ``on_outcome`` fires after every analyzer (the
service maps it onto job progress updates) and
``should_stop`` is consulted between analyzers (cooperative cancel at
analyzer granularity, mirroring sweep-point cancel semantics).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from collections.abc import Callable, Mapping

from repro import obs
from repro.analysis.analyzers import AnalysisContext, Analyzer, get_analyzer
from repro.analysis.index import ArchiveIndex
from repro.errors import AnalysisError
from repro.obs import names as obs_names
from repro.runtime.engine import default_root
from repro.utils.io import atomic_write_text

#: Directory names under ``<root>/analysis/``.
ANALYSIS_DIR = "analysis"
CACHE_DIR = "cache"
REPORTS_DIR = "reports"

#: Bump when the cache-entry layout changes.
ANALYSIS_SCHEMA = 1

#: Named pipelines: ordered analyzer ids.  ``paper-summary`` is the
#: everything pipeline behind the acceptance flow; the narrower names
#: exist for targeted re-analysis.
PIPELINES: dict[str, tuple[str, ...]] = {
    "visibility": ("fringe-visibility",),
    "car": ("car-power",),
    "tomography": ("tomography-fidelity",),
    "paper-summary": (
        "fringe-visibility",
        "car-power",
        "tomography-fidelity",
        "paper-summary",
    ),
}


def analysis_dir(root: str | pathlib.Path | None = None) -> pathlib.Path:
    """The analysis directory under an engine root."""
    base = pathlib.Path(root) if root is not None else default_root()
    return base / ANALYSIS_DIR


def get_pipeline(name: str) -> tuple[str, ...]:
    """The analyzer ids of one pipeline (AnalysisError if unknown)."""
    if name not in PIPELINES:
        raise AnalysisError(
            f"unknown pipeline {name!r}; available: {sorted(PIPELINES)}"
        )
    return PIPELINES[name]


@dataclasses.dataclass
class AnalyzerOutcome:
    """One analyzer invocation: identity, cache verdict, outputs."""

    analyzer_id: str
    version: int
    digest: str
    cached: bool
    num_inputs: int
    duration_s: float
    outputs: dict[str, object]

    def document(self) -> dict[str, object]:
        """The deterministic payload slice that goes into reports.

        Excludes the cache verdict and timing on purpose: the report of
        a cache-served pipeline must be byte-identical to the report of
        the run that populated the cache.
        """
        return {
            "analyzer_id": self.analyzer_id,
            "version": self.version,
            "digest": self.digest,
            "num_inputs": self.num_inputs,
            "outputs": self.outputs,
        }


@dataclasses.dataclass
class PipelineResult:
    """All analyzer outcomes of one pipeline run."""

    pipeline: str
    outcomes: list[AnalyzerOutcome]
    completed: bool

    @property
    def num_cached(self) -> int:
        """How many analyzers were served from the analysis cache."""
        return sum(1 for o in self.outcomes if o.cached)


class PipelineRunner:
    """Executes pipelines over one engine root's archive."""

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        index: ArchiveIndex | None = None,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.index = index if index is not None else ArchiveIndex(self.root)
        self.cache_dir = analysis_dir(self.root) / CACHE_DIR

    def run(
        self,
        pipeline: str,
        force: bool = False,
        refresh: bool = True,
        on_outcome: Callable[[AnalyzerOutcome], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> PipelineResult:
        """Run one named pipeline; returns every analyzer's outcome.

        ``force`` bypasses cache reads (results are still written);
        ``refresh=False`` trusts the loaded index (tests, tight loops).
        ``should_stop`` is polled before each analyzer — a True stops
        the run early with ``completed=False`` and no report side
        effects.
        """
        analyzer_ids = get_pipeline(pipeline)
        with obs.span(
            obs_names.SPAN_ANALYSIS_PIPELINE,
            pipeline=pipeline,
            analyzers=len(analyzer_ids),
        ) as pipeline_span:
            if refresh:
                self.index.refresh()
            else:
                self.index.load()
            outcomes: list[AnalyzerOutcome] = []
            for analyzer_id in analyzer_ids:
                if should_stop is not None and should_stop():
                    pipeline_span.set(completed=False)
                    return PipelineResult(pipeline, outcomes, completed=False)
                outcome = self.run_analyzer(
                    get_analyzer(analyzer_id), force=force
                )
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
            pipeline_span.set(
                completed=True,
                cached=sum(1 for o in outcomes if o.cached),
            )
        obs.event(
            obs_names.EVENT_PIPELINE_FINISHED,
            {
                "pipeline": pipeline,
                "analyzers": len(outcomes),
                "cached": sum(1 for o in outcomes if o.cached),
            },
        )
        return PipelineResult(pipeline, outcomes, completed=True)

    def run_analyzer(
        self, analyzer: Analyzer, force: bool = False
    ) -> AnalyzerOutcome:
        """One analyzer over the current index, through the cache."""
        with obs.span(
            obs_names.SPAN_ANALYSIS_ANALYZER, analyzer=analyzer.analyzer_id
        ) as span:
            entries = []
            for experiment in analyzer.experiments:
                entries.extend(
                    self.index.query(experiment=experiment, status="ok")
                )
            digest = analyzer.input_digest(entries)
            if not force:
                hit = self._cache_get(analyzer, digest)
                if hit is not None:
                    span.set(cached=True)
                    outcome = AnalyzerOutcome(
                        analyzer_id=analyzer.analyzer_id,
                        version=analyzer.version,
                        digest=digest,
                        cached=True,
                        num_inputs=len(entries),
                        duration_s=0.0,
                        outputs=hit,
                    )
                    self._record_analyzer(outcome)
                    return outcome
            start = time.perf_counter()
            context = AnalysisContext(self.root, entries)
            outputs = analyzer.compute(context)
            duration = time.perf_counter() - start
            self._cache_put(analyzer, digest, len(entries), outputs, duration)
            span.set(cached=False)
            outcome = AnalyzerOutcome(
                analyzer_id=analyzer.analyzer_id,
                version=analyzer.version,
                digest=digest,
                cached=False,
                num_inputs=len(entries),
                duration_s=duration,
                outputs=outputs,
            )
            self._record_analyzer(outcome)
            return outcome

    @staticmethod
    def _record_analyzer(outcome: AnalyzerOutcome) -> None:
        """Telemetry for one analyzer outcome (counter, latency, event)."""
        obs.count(obs_names.METRIC_ANALYZERS_RUN, cached=outcome.cached)
        if not outcome.cached:
            obs.observe(
                obs_names.METRIC_ANALYZER_SECONDS, outcome.duration_s
            )
        obs.event(
            obs_names.EVENT_ANALYZER_FINISHED,
            {
                "analyzer": outcome.analyzer_id,
                "cached": outcome.cached,
                "num_inputs": outcome.num_inputs,
            },
        )

    # ------------------------------------------------------------------
    # Analysis cache
    # ------------------------------------------------------------------
    def _cache_path(self, analyzer: Analyzer, digest: str) -> pathlib.Path:
        return self.cache_dir / f"{analyzer.analyzer_id}-{digest[:24]}.json"

    def _cache_get(
        self, analyzer: Analyzer, digest: str
    ) -> dict[str, object] | None:
        """Cached outputs for one (analyzer, digest), or None."""
        path = self._cache_path(analyzer, digest)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            entry.get("schema") != ANALYSIS_SCHEMA
            or entry.get("digest") != digest
            or entry.get("version") != analyzer.version
        ):
            return None
        outputs = entry.get("outputs")
        return outputs if isinstance(outputs, dict) else None

    def _cache_put(
        self,
        analyzer: Analyzer,
        digest: str,
        num_inputs: int,
        outputs: Mapping[str, object],
        duration_s: float,
    ) -> None:
        """Persist one computed invocation (atomic write)."""
        atomic_write_text(
            self._cache_path(analyzer, digest),
            json.dumps(
                {
                    "schema": ANALYSIS_SCHEMA,
                    "analyzer_id": analyzer.analyzer_id,
                    "version": analyzer.version,
                    "digest": digest,
                    "num_inputs": num_inputs,
                    "computed_unix": time.time(),
                    "duration_s": duration_s,
                    "outputs": dict(outputs),
                },
                indent=1,
                sort_keys=True,
            ),
        )

    def clear_cache(self, keep: int = 0) -> list[str]:
        """Delete cached analyses beyond the ``keep`` newest entries.

        The analysis-side garbage collector: validates ``keep >= 0``
        and returns the deleted file names (newest-first order of the
        survivors is by mtime).
        """
        if keep < 0:
            raise AnalysisError(f"cache GC needs keep >= 0, got {keep}")
        if not self.cache_dir.exists():
            return []
        entries = sorted(
            self.cache_dir.glob("*.json"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        removed = []
        for path in entries[keep:]:
            path.unlink(missing_ok=True)
            removed.append(path.name)
        return removed
