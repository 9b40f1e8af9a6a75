"""Common result container and override helpers for experiment drivers."""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.utils.tables import format_series, format_table


def integer_override(experiment_id: str, name: str, value: object) -> int:
    """Coerce an integer-valued driver override, rejecting fractions.

    Scan points arrive as floats; silently truncating ``2.5`` would run
    a different configuration than the one recorded in the cache
    fingerprint and sweep table, so non-integral values are an error.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{experiment_id} {name} must be an integer, got {value!r}"
        ) from None
    if not number.is_integer():
        raise ConfigurationError(
            f"{experiment_id} {name} must be an integer, got {value!r}"
        )
    return int(number)


@dataclasses.dataclass
class ExperimentResult:
    """A reproduced table/figure plus the metrics used for assertions.

    Parameters
    ----------
    experiment_id:
        Identifier from the DESIGN.md index (e.g. "E2").
    title:
        Human-readable experiment name.
    paper_claim:
        The quantitative statement of the paper this experiment reproduces.
    headers / rows:
        The regenerated table (same rows the paper reports).
    metrics:
        Scalar outcomes benchmarks assert on (e.g. {"car_min": 13.1}).
    series:
        Optional regenerated figure curves as (label, x, y) triples.
    """

    experiment_id: str
    title: str
    paper_claim: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    metrics: dict[str, float]
    series: list[tuple[str, Sequence[float], Sequence[float]]] = dataclasses.field(
        default_factory=list
    )

    def to_text(self) -> str:
        """Render the full result: table, series sparklines, metrics."""
        parts = [
            f"[{self.experiment_id}] {self.title}",
            f"paper: {self.paper_claim}",
            format_table(self.headers, self.rows),
        ]
        for label, x, y in self.series:
            parts.append(format_series(list(x), list(y), "x", label))
        metric_rows = [[k, v] for k, v in sorted(self.metrics.items())]
        parts.append(format_table(["metric", "value"], metric_rows))
        return "\n\n".join(parts)

    def metric(self, name: str) -> float:
        """A single metric by name (KeyError with context if missing)."""
        if name not in self.metrics:
            raise KeyError(
                f"{self.experiment_id} has no metric {name!r}; available: "
                f"{sorted(self.metrics)}"
            )
        return self.metrics[name]
