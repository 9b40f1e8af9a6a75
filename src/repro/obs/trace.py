"""The span tracer: nested, timed scopes with process-safe identities.

A *span* is one named, timed scope (``engine.run``, ``rpc.request``)
with key=value attributes, a monotonic duration, and parent/child
nesting tracked per thread — entering a span inside another makes it a
child automatically.  Span identity is **counter-based**: ids are
``<prefix><n>`` from a per-tracer counter, never derived from
``time.time``, so a test driving a fresh :class:`Tracer` sees exactly
the ids it expects.

Crossing the process-pool boundary works the same way the
engine transports worker tracebacks (the ``WorkerError`` plumbing):
the parent passes :meth:`Tracer.context` to the worker, the worker
records into its own pid-prefixed collector tracer, and the finished
spans travel back through the result tuple as plain dicts for the
parent to journal — workers never touch the journal themselves,
preserving the parent-side-I/O invariant.

Pure stdlib; the disabled fast path lives one layer up in
:mod:`repro.obs`, which hands out :data:`NULL_SPAN` without ever
constructing a tracer.
"""

from __future__ import annotations

import collections
import itertools
import threading
from collections.abc import Callable, Mapping

from repro.obs import names
from repro.obs.clock import Clock

#: How many finished spans a tracer retains in memory for inspection.
SPAN_BUFFER = 2048


class NullSpan:
    """The shared no-op span handed out while telemetry is disabled.

    Supports the full active-span surface (context manager plus
    :meth:`set`) so instrumented code never branches on enablement.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        """No-op scope entry."""
        return self

    def __exit__(self, *exc_info: object) -> bool:
        """No-op scope exit; never swallows exceptions."""
        return False

    def set(self, **attrs: object) -> "NullSpan":
        """Discard attributes."""
        return self


#: The singleton no-op span (allocation-free disabled path).
NULL_SPAN = NullSpan()


class Span:
    """One active (or finished) traced scope.

    Created by :meth:`Tracer.span`; use as a context manager.  ``attrs``
    may be extended mid-scope with :meth:`set` (e.g. a run id that only
    exists once the work finishes).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "started_unix",
        "duration_s",
        "status",
        "_tracer",
        "_start_mono",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, object],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.started_unix = 0.0
        self.duration_s: float | None = None
        self.status = "ok"
        self._tracer = tracer
        self._start_mono = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        """Start timing and become the thread's current span."""
        clock = self._tracer.clock
        self.started_unix = clock.wall()
        self._start_mono = clock.monotonic()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        """Stop timing, mark failures, pop, and hand to the sink."""
        self.duration_s = self._tracer.clock.monotonic() - self._start_mono
        if exc_type is not None:
            self.status = "failed"
        self._tracer._pop(self)
        return False

    def to_event(self) -> dict[str, object]:
        """The journal-ready document of one finished span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "unix": self.started_unix,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Allocates, nests and collects spans for one process (or worker).

    Parameters
    ----------
    clock:
        Timing source (injectable for deterministic tests).
    prefix:
        Span-id prefix.  The process-wide tracer uses ``"s"``; pool
        workers use ``w<pid>-`` so ids from different processes can
        never collide in one journal.
    sink:
        Optional ``callable(span)`` invoked as each span finishes (the
        façade wires this to the event journal).  Finished spans are
        additionally retained in :attr:`finished` (bounded).
    """

    def __init__(
        self,
        clock: Clock | None = None,
        prefix: str = "s",
        sink: Callable[[Span], None] | None = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.prefix = prefix
        self.sink = sink
        self.finished: collections.deque[Span] = collections.deque(
            maxlen=SPAN_BUFFER
        )
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._remote: dict[str, str] | None = None

    # ------------------------------------------------------------------
    # Span creation and context
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """A new span nested under the thread's current one (if any)."""
        names.require_span(name)
        span_id = f"{self.prefix}{next(self._ids)}"
        parent = self._current()
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = span_id, None
        return Span(self, name, trace_id, span_id, parent_id, dict(attrs))

    def context(self) -> dict[str, str] | None:
        """The (trace id, span id) pair workers adopt, or None.

        JSON-native on purpose: it rides to pool workers next to the
        :class:`RunSpec` and back inside the result tuple.
        """
        current = self._current()
        if current is None:
            return None
        return {"trace_id": current[0], "span_id": current[1]}

    def adopt(self, context: Mapping[str, str] | None) -> None:
        """Parent spans created on any thread under a remote context.

        Used on the worker side of the process boundary: spans with no
        local parent become children of the remote span instead of
        starting fresh traces.
        """
        if context is None:
            self._remote = None
            return
        self._remote = {
            "trace_id": str(context["trace_id"]),
            "span_id": str(context["span_id"]),
        }

    def _current(self) -> tuple[str, str] | None:
        """(trace id, span id) of the innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            top = stack[-1]
            return top.trace_id, top.span_id
        if self._remote is not None:
            return self._remote["trace_id"], self._remote["span_id"]
        return None

    # ------------------------------------------------------------------
    # Stack + collection (called by Span.__enter__/__exit__)
    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        """Make ``span`` the thread's current span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        """Retire a finished span: unwind the stack, record, sink."""
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # exotic: exited out of order
            stack.remove(span)
        self.finished.append(span)
        if self.sink is not None:
            self.sink(span)

    def drain(self) -> list[dict[str, object]]:
        """Remove and return every finished span as journal documents.

        The worker side of the process-boundary plumbing: collect
        everything recorded during one ``_execute_safe`` call and ship
        it back as JSON-native dicts.
        """
        events = [span.to_event() for span in self.finished]
        self.finished.clear()
        return events
