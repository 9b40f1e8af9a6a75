"""Telemetry façade: structured tracing, metrics, and the event journal.

Every instrumented layer talks to this module, never to the tracer or
registry directly::

    from repro import obs
    from repro.obs import names

    with obs.span(names.SPAN_ENGINE_RUN, experiment="E5") as span:
        ...
        span.set(run_id=run_id)
    obs.count(names.METRIC_CACHE_HIT)
    obs.observe(names.METRIC_QUEUE_WAIT_SECONDS, wait_s)
    obs.event(names.EVENT_RUN_FINISHED, {"run_id": run_id})

**Disabled is the default and costs nothing measurable**: each façade
function checks one attribute and returns (``span`` hands out the
shared :data:`~repro.obs.trace.NULL_SPAN`).  No numpy anywhere — the
whole ``repro.obs`` package is inside the cached-CLI import closure
pinned by IMP001.

Enablement: set ``REPRO_OBS=1`` in the environment (any process), or
call :func:`configure` explicitly — the experiment service does the
latter on boot, so a daemon is always observable unless ``REPRO_OBS=0``
opts out.  The journal activates once a root is attached (the first
:class:`~repro.runtime.engine.RunEngine` or service to come up wins);
until then spans and metrics accumulate in memory only.

Tests drive a private state via :func:`configure`'s return value plus
:func:`reset`, and inject a :class:`~repro.obs.clock.ManualClock` so
durations are exact.
"""

from __future__ import annotations

import os
import pathlib
import threading
from collections.abc import Iterable, Mapping

from repro.obs import names
from repro.obs.bus import DatasetBus
from repro.obs.bus import is_journaled as bus_is_journaled
from repro.obs.clock import Clock
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NullSpan, Span, Tracer

#: Environment variable controlling telemetry (1/true/yes/on ⇄ 0/...).
OBS_ENV_VAR = "REPRO_OBS"


def env_preference() -> bool | None:
    """The tri-state ``REPRO_OBS`` reading: True, False, or unset."""
    raw = os.environ.get(OBS_ENV_VAR, "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    return None


class ObsState:
    """The mutable telemetry state of one process.

    Bundles the enabled flag, the process tracer, the metrics registry
    and the (lazily attached) journal so the module-level façade is a
    single attribute load away from the no-op return.
    """

    def __init__(
        self, enabled: bool = False, clock: Clock | None = None
    ) -> None:
        self.enabled = enabled
        self.clock = clock if clock is not None else Clock()
        # Pid-qualified ids: the journal outlives processes, and two CLI
        # invocations against the same root must not collide on "s1".
        self.tracer = Tracer(
            clock=self.clock, prefix=f"p{os.getpid()}-", sink=self._sink
        )
        self.metrics = MetricsRegistry()
        self.journal: EventJournal | None = None
        self.bus = DatasetBus()

    def _sink(self, span: Span) -> None:
        """Journal one finished span (tracer sink)."""
        if self.journal is not None:
            self.journal.emit_span(span.to_event())
            self.metrics.count(names.METRIC_JOURNAL_EVENTS)

    def attach_root(self, root: str | pathlib.Path) -> None:
        """Open the journal under ``root`` (first caller wins)."""
        if self.journal is not None:
            return
        self.journal = EventJournal(root, clock=self.clock)
        self.bus.journal_root = self.journal.root
        self.journal.emit(
            names.EVENT_OBS_STARTED,
            {"pid": os.getpid(), "root": str(pathlib.Path(root))},
        )
        self.metrics.count(names.METRIC_JOURNAL_EVENTS)


#: Process-wide state; module functions are thin forwards into it.
_STATE = ObsState(enabled=bool(env_preference()))
_CONFIGURE_LOCK = threading.Lock()


def state() -> ObsState:
    """The live process state (introspection and tests)."""
    return _STATE


def enabled() -> bool:
    """Whether telemetry is recording in this process."""
    return _STATE.enabled


def configure(
    enabled: bool | None = None,
    root: str | pathlib.Path | None = None,
    clock: Clock | None = None,
) -> ObsState:
    """Adjust process telemetry; returns the live state.

    ``enabled`` flips recording on or off; ``clock`` swaps the timing
    source (rebuilding the tracer so ids restart — tests only);
    ``root`` attaches the journal.  Every argument is optional and
    ``None`` means "leave as is".
    """
    global _STATE
    with _CONFIGURE_LOCK:
        if clock is not None:
            fresh = ObsState(
                enabled=_STATE.enabled if enabled is None else enabled,
                clock=clock,
            )
            _STATE = fresh
        elif enabled is not None:
            _STATE.enabled = enabled
        if root is not None and _STATE.enabled:
            _STATE.attach_root(root)
    return _STATE


def reset() -> ObsState:
    """Return to the pristine env-derived state (test isolation)."""
    global _STATE
    with _CONFIGURE_LOCK:
        _STATE = ObsState(enabled=bool(env_preference()))
    return _STATE


def attach_root(root: str | pathlib.Path) -> None:
    """Attach the journal under ``root`` if telemetry is recording.

    Idempotent and first-wins: engines and services call this on
    construction, and only the first root of the process gets the
    journal (one process serves one root in every supported layout).
    """
    state = _STATE
    if state.enabled:
        with _CONFIGURE_LOCK:
            state.attach_root(root)


# ---------------------------------------------------------------------------
# The hot façade: every function begins with the disabled fast path
# ---------------------------------------------------------------------------


def span(name: str, **attrs: object) -> Span | NullSpan:
    """A traced scope, or the shared no-op span while disabled."""
    state = _STATE
    if not state.enabled:
        return NULL_SPAN
    return state.tracer.span(name, **attrs)


def count(name: str, value: int = 1, **labels: object) -> None:
    """Add to a counter (no-op while disabled)."""
    state = _STATE
    if not state.enabled:
        return
    state.metrics.count(name, value, **labels)


def gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge (no-op while disabled)."""
    state = _STATE
    if not state.enabled:
        return
    state.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    """Record a histogram observation (no-op while disabled)."""
    state = _STATE
    if not state.enabled:
        return
    state.metrics.observe(name, value, **labels)


def event(name: str, attrs: Mapping[str, object] | None = None) -> None:
    """Journal one lifecycle event (no-op while disabled or rootless)."""
    state = _STATE
    if not state.enabled or state.journal is None:
        return
    state.journal.emit(name, attrs)
    state.metrics.count(names.METRIC_JOURNAL_EVENTS)


def publish_init(topic: str, snapshot: Mapping[str, object]) -> int:
    """Broadcast a topic's full snapshot on the dataset bus.

    Returns the bus sequence number (0 while disabled).  ``datasets.*``
    topics are mirrored into the obs journal so stale subscribers and
    the offline dashboard can replay them.
    """
    state = _STATE
    if not state.enabled:
        return 0
    seq = state.bus.publish_init(topic, snapshot)
    if state.journal is not None and bus_is_journaled(topic):
        state.journal.emit(
            names.EVENT_DATASET_INIT,
            {"topic": topic, "bus_seq": seq, "snapshot": dict(snapshot)},
        )
        state.metrics.count(names.METRIC_JOURNAL_EVENTS)
    return seq


def publish_mod(topic: str, mod: Mapping[str, object]) -> int:
    """Broadcast one structured diff on the dataset bus.

    Returns the bus sequence number (0 while disabled); journaling as
    in :func:`publish_init`.
    """
    state = _STATE
    if not state.enabled:
        return 0
    seq = state.bus.publish_mod(topic, mod)
    if state.journal is not None and bus_is_journaled(topic):
        state.journal.emit(
            names.EVENT_DATASET_MOD,
            {"topic": topic, "bus_seq": seq, "mod": dict(mod)},
        )
        state.metrics.count(names.METRIC_JOURNAL_EVENTS)
    return seq


def context() -> dict[str, str] | None:
    """The current span context to ship across a process boundary."""
    state = _STATE
    if not state.enabled:
        return None
    return state.tracer.context()


def replay(span_events: Iterable[Mapping[str, object]]) -> None:
    """Journal span documents recorded in a pool worker.

    The parent-side half of the process-boundary plumbing: workers
    return their finished spans as dicts (see :func:`worker_scope`) and
    the parent — the only process allowed to touch the journal —
    replays them here.
    """
    state = _STATE
    if not state.enabled or state.journal is None:
        return
    for document in span_events:
        state.journal.emit_span(document)
        state.metrics.count(names.METRIC_JOURNAL_EVENTS)


def snapshot() -> dict[str, object]:
    """The process metrics snapshot plus enablement/journal context."""
    state = _STATE
    document = state.metrics.snapshot()
    document["enabled"] = state.enabled
    document["journal"] = (
        str(state.journal.path) if state.journal is not None else None
    )
    return document


# ---------------------------------------------------------------------------
# Worker-side tracing (inside process-pool workers)
# ---------------------------------------------------------------------------


class WorkerScope:
    """A self-contained span recorder for one pool-worker execution.

    Opens a pid-prefixed collector :class:`Tracer` adopted onto the
    parent's span context, times one span around the worker's compute,
    and exposes the finished spans as JSON-native dicts in
    :attr:`spans` — ready to ride home in the result tuple next to the
    record and the formatted traceback.  The worker never touches the
    journal (parent-side-I/O invariant).
    """

    def __init__(
        self,
        worker_context: Mapping[str, str] | None,
        name: str,
        **attrs: object,
    ) -> None:
        self.spans: list[dict[str, object]] = []
        self._span: Span | NullSpan = NULL_SPAN
        self._tracer: Tracer | None = None
        if worker_context is not None:
            self._tracer = Tracer(prefix=f"w{os.getpid()}-")
            self._tracer.adopt(worker_context)
            self._span = self._tracer.span(name, pid=os.getpid(), **attrs)

    def __enter__(self) -> "WorkerScope":
        """Start the worker-side span (no-op without a context)."""
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        """Finish the span and collect every recorded document."""
        self._span.__exit__(*exc_info)
        if self._tracer is not None:
            self.spans = self._tracer.drain()
        return False


def worker_scope(
    worker_context: Mapping[str, str] | None, name: str, **attrs: object
) -> WorkerScope:
    """A :class:`WorkerScope` for one pool execution (None context → no-op)."""
    return WorkerScope(worker_context, name, **attrs)
