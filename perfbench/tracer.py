"""Self-time tracing from outside the program: wrappers and a call stack.

A :class:`Tracer` wraps functions of the ``repro`` package at the module
or class attributes where callers bind them.  Each wrapped call pushes a
frame on its thread's stack; when it returns, its inclusive time is
charged to its parent frame as child time, and ``inclusive - children``
is charged to its own layer as *self* time.  Nested wrappers therefore
never count the same second twice.

:meth:`Tracer.snapshot` also charges the elapsed part of frames that are
still open, so the difference of two snapshots attributes exactly the
time between them — the measurement window — even for long calls that
straddle its edges (an idle scheduler thread parked in a wait, a
long-poll request).

The ``install_*`` functions put the wrappers on the layers the benchmark
reports.  Nothing here changes what a wrapped function returns.
"""

from __future__ import annotations

import collections
import functools
import sys
import threading
import time
from collections.abc import Callable, Iterable

#: The distribution methods of ``repro.utils.rng.RandomStream``.
RNG_METHODS = (
    "poisson",
    "uniform",
    "normal",
    "exponential",
    "choice",
    "binomial",
    "random",
    "integers",
    "multinomial",
)

#: Modules whose calls into ``repro.utils.io`` are reported separately.
IO_CALLERS = (
    "service.store",
    "obs.journal",
    "runtime.engine",
    "runtime.cache",
    "runtime.datasets",
    "runtime.records",
    "analysis.index",
    "service.api",
)


class Tracer:
    """Per-layer self time, call counts and counters of wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list[list]] = {}
        self.self_s: collections.Counter[str] = collections.Counter()
        self.calls: collections.Counter[str] = collections.Counter()
        self.counts: collections.Counter[str] = collections.Counter()
        #: Layer names whose individual (start, end) intervals are kept.
        self.recorded: set[str] = set()
        self.intervals: dict[str, list[tuple[float, float]]] = (
            collections.defaultdict(list)
        )

    def _stack(self) -> list[list]:
        """This thread's open frames, outermost first."""
        try:
            return self._local.stack
        except AttributeError:
            stack: list[list] = []
            self._local.stack = stack
            with self._lock:
                self._stacks[threading.get_ident()] = stack
            return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one frame of layer ``name``."""
        stack = self._stack()
        frame = [name, self.clock(), 0.0]
        with self._lock:
            stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            elapsed = end - frame[1]
            with self._lock:
                stack.pop()
                if stack:
                    stack[-1][2] += elapsed
                self.self_s[name] += elapsed - frame[2]
                self.calls[name] += 1
                if name in self.recorded:
                    self.intervals[name].append((frame[1], end))

    def add(self, key: str, value: float) -> None:
        """Add ``value`` to counter ``key``."""
        with self._lock:
            self.counts[key] += value

    def snapshot(self) -> dict[str, object]:
        """Totals so far, with open frames charged up to now."""
        with self._lock:
            now = self.clock()
            self_s = dict(self.self_s)
            stacks = [[list(frame) for frame in stack] for stack in self._stacks.values()]
            document: dict[str, object] = {
                "clock": now,
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "intervals": {k: list(v) for k, v in self.intervals.items()},
            }
        for frames in stacks:
            inner = 0.0  # inclusive time of the open child frame
            for name, start, children in reversed(frames):
                elapsed = now - start
                self_s[name] = self_s.get(name, 0.0) + elapsed - children - inner
                inner = elapsed
        document["self_s"] = self_s
        return document

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` charging layer ``name``.

        ``name`` may be a callable ``name(caller_frame, args)`` for
        layers named per call (RPC method, calling module).  ``after``
        is called as ``after(tracer, args, kwargs, result)`` to update
        counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            layer = name(sys._getframe(1), args) if callable(name) else name
            result = self.call(layer, fn, *args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced


def diff(start: dict[str, object], end: dict[str, object]) -> dict[str, object]:
    """What happened between two snapshots of one tracer."""

    def minus(key: str) -> dict[str, float]:
        before = start[key]
        return {
            name: value - before.get(name, 0)
            for name, value in end[key].items()
            if value - before.get(name, 0)
        }

    lo, hi = start["clock"], end["clock"]
    return {
        "window_s": hi - lo,
        "self_s": minus("self_s"),
        "calls": minus("calls"),
        "counts": minus("counts"),
        "intervals": {
            name: [(a, b) for a, b in spans if a >= lo and b <= hi]
            for name, spans in end["intervals"].items()
        },
    }


def table(self_s: dict[str, float], basis_s: float) -> list[tuple[str, float]]:
    """Rows ``(layer, seconds)`` by descending self time, then ``unattributed``.

    ``unattributed`` is the part of ``basis_s`` no wrapped layer claimed,
    so the rows always sum to ``basis_s``.
    """
    rows = sorted(self_s.items(), key=lambda item: -item[1])
    rows.append(("unattributed", basis_s - sum(self_s.values())))
    return rows


def render(rows: list[tuple[str, float]], basis_s: float, title: str) -> str:
    """The self-time table as aligned text."""
    width = max(len(name) for name, _ in rows)
    lines = [title, f"{'layer':<{width}}  {'self_s':>10}  {'share':>7}"]
    for name, seconds in rows:
        share = seconds / basis_s if basis_s else 0.0
        lines.append(f"{name:<{width}}  {seconds:>10.4f}  {share:>7.1%}")
    lines.append(f"{'total':<{width}}  {basis_s:>10.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind every ``repro`` module attribute that holds ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(tracer: Tracer, module, attr: str, name, after=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, after))


def _wrap_method(tracer: Tracer, cls, attr: str, name, after=None) -> None:
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, after))


def _io_caller(frame, args) -> str:
    """``utils.io.<calling module>`` for the io wrappers."""
    module = frame.f_globals.get("__name__", "")
    module = module[len("repro."):] if module.startswith("repro.") else module
    return f"utils.io.{module if module in IO_CALLERS else 'other'}"


def _count_io(tracer: Tracer, args, kwargs, result) -> None:
    caller = _io_caller(sys._getframe(2), args)
    payload = args[1] if len(args) > 1 else kwargs.get("text", kwargs.get("data", b""))
    size = len(payload.encode("utf-8")) if isinstance(payload, str) else len(payload)
    tracer.add(f"{caller}.fsyncs", 1)
    tracer.add(f"{caller}.bytes", size)


def install_storage(tracer: Tracer) -> None:
    """Wrap the storage layers: cache, archive, records, index, io, obs journal."""
    import repro.analysis.index as index
    import repro.obs.journal as journal
    import repro.runtime.cache as cache
    import repro.runtime.datasets as datasets
    import repro.runtime.engine as engine
    import repro.runtime.records as records
    import repro.utils.io as io

    def count_hit(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add("runtime.cache.get.hits", result is not None)

    _wrap_method(tracer, cache.ResultCache, "get", "runtime.cache.get", count_hit)
    _wrap_method(tracer, cache.ResultCache, "put", "runtime.cache.put")
    _wrap_method(tracer, datasets.DatasetStore, "save", "runtime.datasets.save")
    for attr in ("to_record", "from_record", "save", "load", "dumps", "loads"):
        _wrap_function(tracer, records, attr, "runtime.records")
    _wrap_function(tracer, index, "journal_append", "analysis.index.journal_append")
    for attr in ("emit", "emit_span"):
        _wrap_method(tracer, journal.EventJournal, attr, "obs.journal.emit")
    for attr in ("append_line", "atomic_write_text", "atomic_write_bytes"):
        _wrap_function(tracer, io, attr, _io_caller, _count_io)
    for attr in ("run", "lookup"):
        _wrap_method(tracer, engine.RunEngine, attr, f"runtime.engine.{attr}")


def install_physics(tracer: Tracer) -> None:
    """Wrap the physics kernels and the nine drivers."""
    import repro.core.schemes as schemes
    import repro.detection.coincidence as coincidence
    import repro.detection.spd as spd
    import repro.experiments.registry as registry
    import repro.quantum.measurement as measurement
    import repro.quantum.tomography as tomography
    import repro.timebin.fringes as fringes
    import repro.utils.rng as rng

    def count_tags(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add("detection.car_from_tags.tags_in", len(args[0]) + len(args[1]))

    def count_clicks(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add("detection.detect.photons_in", len(args[1]))
        tracer.add("detection.detect.clicks_out", len(result))

    def count_iterations(tracer: Tracer, args, kwargs, result) -> None:
        tracer.add("quantum.mle_tomography.iterations", result.iterations)

    _wrap_function(
        tracer, coincidence, "car_from_tags", "detection.car_from_tags", count_tags
    )
    _wrap_method(tracer, spd.DetectorModel, "detect", "detection.detect", count_clicks)
    for cls in (schemes.HeraldedSingleScheme, schemes.TypeIIScheme):
        _wrap_method(tracer, cls, "detected_streams", "core.detected_streams")
    _wrap_function(
        tracer,
        tomography,
        "mle_tomography",
        "quantum.mle_tomography",
        count_iterations,
    )
    _wrap_function(tracer, measurement, "sample_outcomes", "quantum.sample_outcomes")
    _wrap_method(tracer, fringes.FringeScan, "run", "timebin.fringe_scan")
    for attr in RNG_METHODS:
        _wrap_rng(tracer, rng.RandomStream, attr)
    for key, (driver, description) in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[key] = (
            tracer.wrap(driver, f"experiments.{key}"),
            description,
        )


def _wrap_rng(tracer: Tracer, cls, attr: str) -> None:
    """Wrap one ``RandomStream`` method, counting the draws it consumes."""
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def traced(stream, *args, **kwargs):
        position = stream.position
        result = tracer.call("utils.rng", original, stream, *args, **kwargs)
        tracer.add("utils.rng.draws", stream.position - position)
        return result

    setattr(cls, attr, traced)


def install_service(tracer: Tracer) -> None:
    """Wrap the daemon's queue, scheduler and RPC layers (and storage)."""
    import socketserver

    import repro.service.api as api
    import repro.service.store as store

    install_storage(tracer)
    for attr in (
        "submit", "claim", "finish", "update_progress", "wait_job", "wait_for_work"
    ):
        _wrap_method(tracer, store.JobStore, attr, f"service.store.{attr}")
    _wrap_method(
        tracer,
        api.ExperimentService,
        "dispatch",
        lambda frame, args: f"service.api.dispatch.{args[1]}",
    )
    _wrap_method(
        tracer,
        socketserver.ThreadingMixIn,
        "process_request_thread",
        "service.api.http",
    )
    tracer.recorded.update(
        f"service.api.dispatch.{method}" for method in ("submit", "result")
    )
    tracer.recorded.add("service.api.http")


def install_client(tracer: Tracer) -> None:
    """Wrap the load generator's RPC calls and count 503 retries."""
    import urllib.error
    import urllib.request

    import repro.service.client as client

    _wrap_method(
        tracer,
        client.ServiceClient,
        "call",
        lambda frame, args: f"service.client.call.{args[1]}",
    )
    tracer.recorded.update(
        f"service.client.call.{method}" for method in ("submit", "result")
    )
    urlopen = urllib.request.urlopen

    @functools.wraps(urlopen)
    def counted(*args, **kwargs):
        try:
            return urlopen(*args, **kwargs)
        except urllib.error.HTTPError as error:
            if error.code == 503:
                tracer.add("service.api.retries_503", 1)
            raise

    urllib.request.urlopen = counted


def match_transport(
    client: Iterable[tuple[float, float]], server: Iterable[tuple[float, float]]
) -> list[float]:
    """Client round trip minus server dispatch, per matched call.

    Both processes read the same monotonic clock.  Each client call, in
    the order sent, takes the next unmatched server dispatch that started
    after it was sent, if that dispatch ended before the call returned;
    calls with no such dispatch are skipped.
    """
    pending = sorted(server)
    gaps = []
    index = 0
    for start, end in sorted(client):
        while index < len(pending) and pending[index][0] < start:
            index += 1  # dispatched before this call was sent: not ours
        if index < len(pending) and pending[index][1] <= end:
            s_start, s_end = pending[index]
            gaps.append((end - start) - (s_end - s_start))
            index += 1
    return gaps
