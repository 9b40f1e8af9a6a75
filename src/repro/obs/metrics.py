"""Process metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` per process accumulates every metric the
instrumented layers record.  Names must be declared in
:mod:`repro.obs.names` (enforced at record time; OBS001 enforces it
statically at call sites), and histograms use the *fixed* bucket
boundaries declared there, so two snapshots of identical workloads are
byte-identical JSON — the determinism the benchmark trajectory and the
``metrics`` RPC contract rely on.

Labels are folded into the series key as ``name{k=v,...}`` with sorted
keys, keeping the snapshot a flat, greppable mapping instead of a
nested label tree.

Thread-safe via a single lock; recording is a dict update, far off any
hot path once the disabled fast path in :mod:`repro.obs` is passed.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro.obs import names

#: Snapshot document version.
METRICS_SCHEMA = 1


def series_key(name: str, labels: Mapping[str, object]) -> str:
    """The flat snapshot key of one (name, labels) series."""
    if not labels:
        return name
    folded = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{folded}}}"


class Histogram:
    """One fixed-boundary histogram series.

    ``boundaries`` are inclusive upper bounds; one overflow bucket
    catches everything above the last bound.  Also tracks count, sum,
    min and max so snapshots support both rate and tail questions.
    """

    __slots__ = ("boundaries", "counts", "count", "total", "min", "max")

    def __init__(self, boundaries: tuple[float, ...]) -> None:
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Fold one observation into the buckets and summary stats."""
        index = len(self.boundaries)
        for position, bound in enumerate(self.boundaries):
            if value <= bound:
                index = position
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def document(self) -> dict[str, object]:
        """The JSON-native snapshot slice of this series."""
        buckets = {
            f"le={bound:g}": self.counts[i]
            for i, bound in enumerate(self.boundaries)
        }
        buckets["overflow"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Accumulates every counter, gauge and histogram of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def count(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to a counter series (validated against names)."""
        names.require_metric(name, "counter")
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + int(value)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to its latest value."""
        names.require_metric(name, "gauge")
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Fold one observation into a histogram series."""
        names.require_metric(name, "histogram")
        key = series_key(name, labels)
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                series = Histogram(names.HISTOGRAMS[name])
                self._histograms[key] = series
            series.observe(float(value))

    def snapshot(self) -> dict[str, object]:
        """The deterministic JSON document of everything recorded.

        Keys are sorted at every level; two identical workloads produce
        byte-identical ``json.dumps(..., sort_keys=True)`` output.
        """
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": dict(sorted(self._counters.items())),
                "gauges": {
                    key: round(value, 9)
                    for key, value in sorted(self._gauges.items())
                },
                "histograms": {
                    key: series.document()
                    for key, series in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Drop every recorded series (tests and bench isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
