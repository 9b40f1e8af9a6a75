"""The central telemetry name registry (spans, metrics, events).

Every span, metric and journal-event name used anywhere in the repo is
declared here **once**, as a module-level constant, and call sites must
reference the constant — never an ad-hoc string literal.  The
``repro check`` rule OBS001 enforces this statically, and the runtime
registries (:mod:`repro.obs.metrics`, :mod:`repro.obs.journal`) enforce
it dynamically, so the journal schema stays greppable and cannot drift:
``grep SPAN_ENGINE_RUN`` finds the declaration, every call site, every
test and every DESIGN.md row.

Histogram bucket boundaries are fixed here too — snapshots must be
deterministic across runs and machines, so buckets are part of a
metric's declared identity rather than chosen at observation time.

Pure stdlib: this module sits inside the cached-CLI import closure.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Span names (tracer scopes; dotted <layer>.<operation>)
# ---------------------------------------------------------------------------

#: One engine run: compute + persist of a single :class:`RunSpec`.
SPAN_ENGINE_RUN = "engine.run"
#: A whole parameter sweep through :meth:`RunEngine.sweep`.
SPAN_ENGINE_SWEEP = "engine.sweep"
#: The batched in-process fast path over one sweep's cache misses.
SPAN_ENGINE_BATCH = "engine.batch"
#: Writing one run directory (manifest + record + datasets).
SPAN_ENGINE_ARCHIVE = "engine.archive"
#: One content-addressed result-cache consultation.
SPAN_CACHE_LOOKUP = "cache.lookup"
#: One spec executing inside a process-pool worker.
SPAN_POOL_EXECUTE = "pool.execute"
#: One service job, claim to terminal state, on a scheduler thread.
SPAN_SCHEDULER_JOB = "scheduler.job"
#: One JSON-RPC request through the service HTTP layer.
SPAN_RPC_REQUEST = "rpc.request"
#: One analysis pipeline run end to end.
SPAN_ANALYSIS_PIPELINE = "analysis.pipeline"
#: One analyzer invocation inside a pipeline (cached or computed).
SPAN_ANALYSIS_ANALYZER = "analysis.analyzer"
#: One leased job executing on a fleet runner, claim to report.
SPAN_FLEET_EXECUTE = "fleet.execute"

#: Every declared span name.
SPANS = frozenset(
    {
        SPAN_ENGINE_RUN,
        SPAN_ENGINE_SWEEP,
        SPAN_ENGINE_BATCH,
        SPAN_ENGINE_ARCHIVE,
        SPAN_CACHE_LOOKUP,
        SPAN_POOL_EXECUTE,
        SPAN_SCHEDULER_JOB,
        SPAN_RPC_REQUEST,
        SPAN_ANALYSIS_PIPELINE,
        SPAN_ANALYSIS_ANALYZER,
        SPAN_FLEET_EXECUTE,
    }
)

# ---------------------------------------------------------------------------
# Metric names, by kind
# ---------------------------------------------------------------------------

#: Result-cache hits served (counter).
METRIC_CACHE_HIT = "cache.hit"
#: Result-cache misses (counter).
METRIC_CACHE_MISS = "cache.miss"
#: Runs computed (not cache-served) by the engine (counter).
METRIC_ENGINE_RUNS = "engine.runs"
#: Runs archived as failures (counter).
METRIC_ENGINE_FAILURES = "engine.failures"
#: Service jobs reaching a terminal state (counter, ``status`` label).
METRIC_JOBS_FINISHED = "jobs.finished"
#: JSON-RPC requests served (counter, ``method``/``ok`` labels).
METRIC_RPC_REQUESTS = "rpc.requests"
#: Analyzer invocations (counter, ``cached`` label).
METRIC_ANALYZERS_RUN = "analysis.analyzers"
#: Telemetry journal events written (counter).
METRIC_JOURNAL_EVENTS = "journal.events"
#: Event-feed long-polls answered from the queue journal because the
#: requested ``since`` predates the in-memory buffer head (counter).
METRIC_EVENTS_JOURNAL_FALLBACKS = "events.journal_fallbacks"
#: Malformed queue-journal lines skipped at load/replay (counter).
METRIC_QUEUE_JOURNAL_MALFORMED = "queue.journal_malformed"
#: Job leases granted to fleet runners (counter).
METRIC_FLEET_LEASES = "fleet.leases"
#: Leases expired because a runner missed its heartbeats (counter).
METRIC_FLEET_LEASES_EXPIRED = "fleet.leases_expired"
#: Runner heartbeats accepted by the coordinator (counter).
METRIC_FLEET_HEARTBEATS = "fleet.heartbeats"
#: Remote run records ingested through the master-side RPC (counter).
METRIC_FLEET_INGESTED = "fleet.ingested"
#: Long-poll requests rejected with 503 at the inflight cap (counter).
METRIC_API_OVERLOADED = "api.overloaded"

#: Every declared counter name.
COUNTERS = frozenset(
    {
        METRIC_CACHE_HIT,
        METRIC_CACHE_MISS,
        METRIC_ENGINE_RUNS,
        METRIC_ENGINE_FAILURES,
        METRIC_JOBS_FINISHED,
        METRIC_RPC_REQUESTS,
        METRIC_ANALYZERS_RUN,
        METRIC_JOURNAL_EVENTS,
        METRIC_EVENTS_JOURNAL_FALLBACKS,
        METRIC_QUEUE_JOURNAL_MALFORMED,
        METRIC_FLEET_LEASES,
        METRIC_FLEET_LEASES_EXPIRED,
        METRIC_FLEET_HEARTBEATS,
        METRIC_FLEET_INGESTED,
        METRIC_API_OVERLOADED,
    }
)

#: Monte-Carlo sweep throughput, points per second (gauge).
METRIC_MC_POINTS_PER_SECOND = "mc.points_per_second"
#: Pending + running jobs at the last scheduler claim (gauge).
METRIC_QUEUE_DEPTH = "queue.depth"
#: Registered fleet runners currently alive (gauge).
METRIC_FLEET_RUNNERS = "fleet.runners"
#: Long-poll handler threads currently inflight on the API (gauge).
METRIC_API_INFLIGHT = "api.inflight"

#: Every declared gauge name.
GAUGES = frozenset(
    {
        METRIC_MC_POINTS_PER_SECOND,
        METRIC_QUEUE_DEPTH,
        METRIC_FLEET_RUNNERS,
        METRIC_API_INFLIGHT,
    }
)

#: Seconds a job waited between submission and its claim (histogram).
METRIC_QUEUE_WAIT_SECONDS = "queue.wait_seconds"
#: Wall seconds of one JSON-RPC request (histogram, ``method`` label).
METRIC_RPC_REQUEST_SECONDS = "rpc.request_seconds"
#: Wall seconds of one computed engine run (histogram).
METRIC_ENGINE_RUN_SECONDS = "engine.run_seconds"
#: Wall seconds of one result-cache lookup (histogram).
METRIC_CACHE_LOOKUP_SECONDS = "cache.lookup_seconds"
#: Wall seconds of one computed analyzer invocation (histogram).
METRIC_ANALYZER_SECONDS = "analysis.analyzer_seconds"

#: Fixed bucket upper bounds (seconds) shared by the latency
#: histograms.  Deterministic output requires fixed boundaries, so
#: these are part of the registry, not chosen per observation.
SECONDS_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: Histogram name → fixed bucket upper bounds.
HISTOGRAMS: dict[str, tuple[float, ...]] = {
    METRIC_QUEUE_WAIT_SECONDS: SECONDS_BUCKETS,
    METRIC_RPC_REQUEST_SECONDS: SECONDS_BUCKETS,
    METRIC_ENGINE_RUN_SECONDS: SECONDS_BUCKETS,
    METRIC_CACHE_LOOKUP_SECONDS: SECONDS_BUCKETS,
    METRIC_ANALYZER_SECONDS: SECONDS_BUCKETS,
}

# ---------------------------------------------------------------------------
# Dataset-bus topic names (publish/subscribe broadcast channels)
# ---------------------------------------------------------------------------

#: Job-queue state: counts, worker sizing, per-job summaries.
TOPIC_QUEUE = "queue.state"
#: The metrics registry, rate-limited and diffed against the last
#: broadcast (see ``repro.service.datasets.MetricsPublisher``).
TOPIC_METRICS = "metrics.registry"
#: Per-sweep live datasets: one topic per sweep, keyed below the
#: family prefix (``datasets.sweep.<key>``).  The ``datasets.`` family
#: is journaled, so stale subscribers can recover from the obs journal
#: and ``repro dashboard --replay`` works offline.
TOPIC_SWEEP_PREFIX = "datasets.sweep."
#: Fleet state: registered runners, live leases, lifetime totals —
#: maintained by :class:`repro.fleet.coordinator.FleetCoordinator` so
#: ``repro dashboard`` shows the runner fleet next to the queue.
TOPIC_FLEET = "fleet.state"

#: Every declared fixed topic name (families validate by prefix).
TOPICS = frozenset({TOPIC_QUEUE, TOPIC_METRICS, TOPIC_FLEET})

#: Declared topic-family prefixes (member topics carry a dynamic key).
TOPIC_PREFIXES = (TOPIC_SWEEP_PREFIX,)


def sweep_topic(key: str) -> str:
    """The dataset-bus topic of one sweep (``datasets.sweep.<key>``)."""
    return f"{TOPIC_SWEEP_PREFIX}{key}"


def require_topic(name: str) -> str:
    """Validate a dataset-bus topic name; returns it unchanged.

    A topic is either a fixed member of :data:`TOPICS` or belongs to a
    declared family (a :data:`TOPIC_PREFIXES` prefix plus a non-empty
    key) — anything else is an unregistered topic, mirroring
    :func:`require_span` for the bus.
    """
    if name in TOPICS:
        return name
    for prefix in TOPIC_PREFIXES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return name
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"unregistered bus topic {name!r}; declare it in repro.obs.names "
        f"(known topics: {sorted(TOPICS)}, families: "
        f"{[p + '<key>' for p in TOPIC_PREFIXES]})"
    )


# ---------------------------------------------------------------------------
# Journal event names (lifecycle transitions)
# ---------------------------------------------------------------------------

#: One engine run completed and was archived (``run_id``, ``cached``).
EVENT_RUN_FINISHED = "run.finished"
#: One engine run failed (``run_id``, ``error_type``).
EVENT_RUN_FAILED = "run.failed"
#: One service-job state transition, mirroring the queue journal
#: (``job_id``, ``transition``, ``status``).
EVENT_JOB_TRANSITION = "job.transition"
#: One analyzer finished inside a pipeline (``analyzer``, ``cached``).
EVENT_ANALYZER_FINISHED = "analyzer.finished"
#: One analysis pipeline finished (``pipeline``, ``analyzers``).
EVENT_PIPELINE_FINISHED = "pipeline.finished"
#: Telemetry came up in a process (``pid``, ``root``).
EVENT_OBS_STARTED = "obs.started"
#: A dataset-bus ``init`` snapshot was published on a journaled topic
#: (``topic``, ``bus_seq``, ``snapshot``).
EVENT_DATASET_INIT = "dataset.init"
#: A dataset-bus ``mod`` diff was published on a journaled topic
#: (``topic``, ``bus_seq``, ``mod``).
EVENT_DATASET_MOD = "dataset.mod"

#: Every declared journal-event name.
EVENTS = frozenset(
    {
        EVENT_RUN_FINISHED,
        EVENT_RUN_FAILED,
        EVENT_JOB_TRANSITION,
        EVENT_ANALYZER_FINISHED,
        EVENT_PIPELINE_FINISHED,
        EVENT_OBS_STARTED,
        EVENT_DATASET_INIT,
        EVENT_DATASET_MOD,
    }
)

# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def require_span(name: str) -> str:
    """Validate a span name against the registry; returns it unchanged."""
    if name not in SPANS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unregistered span name {name!r}; declare it in "
            f"repro.obs.names (known: {sorted(SPANS)})"
        )
    return name


def require_metric(name: str, kind: str) -> str:
    """Validate a metric name for one kind; returns it unchanged.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; a name
    registered under a different kind is rejected too, so one name can
    never be a counter in one module and a histogram in another.
    """
    registry = {
        "counter": COUNTERS,
        "gauge": GAUGES,
        "histogram": frozenset(HISTOGRAMS),
    }.get(kind)
    if registry is None:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown metric kind {kind!r}; expected counter/gauge/histogram"
        )
    if name not in registry:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unregistered {kind} name {name!r}; declare it in "
            f"repro.obs.names (known {kind}s: {sorted(registry)})"
        )
    return name


def require_event(name: str) -> str:
    """Validate a journal-event name; returns it unchanged."""
    if name not in EVENTS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unregistered event name {name!r}; declare it in "
            f"repro.obs.names (known: {sorted(EVENTS)})"
        )
    return name
