"""Lossless ``ExperimentResult`` ⇄ JSON round-trip.

Every value that reaches a record is canonicalised to JSON-native types
(numpy scalars via ``item()``, arrays via ``tolist()``), so a result that
went to disk and came back compares equal record-to-record.  The module
deliberately avoids importing numpy: the CLI's cached fast path loads
archived results without paying the numpy import.
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Sequence
from typing import cast

from repro.experiments.base import ExperimentResult

#: Bump when the record layout changes; readers reject newer schemas.
SCHEMA_VERSION = 1


def to_record(result: ExperimentResult) -> dict[str, object]:
    """Canonical JSON-native dict for an :class:`ExperimentResult`."""
    return {
        "schema": SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_claim": result.paper_claim,
        "headers": [str(h) for h in result.headers],
        "rows": [[jsonify(cell) for cell in row] for row in result.rows],
        "metrics": {
            str(k): jsonify(v) for k, v in sorted(result.metrics.items())
        },
        "series": [
            {
                "label": str(label),
                "x": [jsonify(v) for v in x],
                "y": [jsonify(v) for v in y],
            }
            for label, x, y in result.series
        ],
    }


def from_record(record: dict[str, object]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`to_record` output.

    Malformed documents raise ``KeyError`` (missing field),
    ``TypeError`` (wrong container shape) or ``ValueError`` (bad
    schema / non-numeric metric) — all of which the result cache
    treats as a miss rather than a crash.
    """
    schema = record.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result record schema {schema!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    rows: list[Sequence[object]] = [
        list(_as_sequence(row, "rows[]"))
        for row in _as_sequence(record["rows"], "rows")
    ]
    series: list[tuple[str, Sequence[float], Sequence[float]]] = [
        _series_entry(raw)
        for raw in _as_sequence(record.get("series", []), "series")
    ]
    return ExperimentResult(
        experiment_id=str(record["experiment_id"]),
        title=str(record["title"]),
        paper_claim=str(record["paper_claim"]),
        headers=[str(h) for h in _as_sequence(record["headers"], "headers")],
        rows=rows,
        metrics={
            k: _as_number(v, f"metrics[{k!r}]")
            for k, v in _as_mapping(record["metrics"], "metrics").items()
        },
        series=series,
    )


def _series_entry(raw: object) -> tuple[str, list[float], list[float]]:
    """Validate one series entry of a record into a (label, x, y) triple.

    The x/y values are kept exactly as stored (ints stay ints) so a
    record survives ``from_record`` → ``to_record`` byte-identically;
    the cast only widens the static type to what the dataclass declares.
    """
    entry = _as_mapping(raw, "series[]")
    return (
        str(entry["label"]),
        cast("list[float]", _as_sequence(entry["x"], "series[].x")),
        cast("list[float]", _as_sequence(entry["y"], "series[].y")),
    )


def _as_sequence(value: object, field: str) -> list[object]:
    """Validate a record field as a list/tuple (TypeError otherwise)."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise TypeError(
        f"result record field {field!r} is not a list "
        f"(got {type(value).__name__})"
    )


def _as_number(value: object, field: str) -> float:
    """Validate a record value as a float (TypeError/ValueError otherwise)."""
    if isinstance(value, (bool, int, float, str)):
        return float(value)
    raise TypeError(
        f"result record field {field} is not a number "
        f"(got {type(value).__name__})"
    )


def _as_mapping(value: object, field: str) -> dict[str, object]:
    """Validate a record field as a JSON object (TypeError otherwise)."""
    if isinstance(value, dict):
        return value
    raise TypeError(
        f"result record field {field!r} is not an object "
        f"(got {type(value).__name__})"
    )


def dumps(result: ExperimentResult, indent: int | None = None) -> str:
    """Serialise a result to a JSON string."""
    return json.dumps(to_record(result), indent=indent, sort_keys=True)


def loads(text: str) -> ExperimentResult:
    """Deserialise a result from :func:`dumps` output."""
    return from_record(json.loads(text))


def save(result: ExperimentResult, path: str | pathlib.Path) -> pathlib.Path:
    """Write a result to ``path`` as JSON (atomic); returns the path.

    Atomicity matters because two engines sharing one runtime root may
    archive the same run id concurrently — see
    :func:`repro.utils.io.atomic_write_text`.
    """
    from repro.utils.io import atomic_write_text

    return pathlib.Path(atomic_write_text(path, dumps(result, indent=2)))


def load(path: str | pathlib.Path) -> ExperimentResult:
    """Read a result previously written by :func:`save`."""
    return loads(pathlib.Path(path).read_text(encoding="utf-8"))


def jsonify(value: object) -> object:
    """Canonicalise one value to JSON-native types.

    Numpy scalars and arrays are detected by their ``tolist`` method so
    this module never has to import numpy itself.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy scalar or ndarray, without importing numpy
        return jsonify(tolist())
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} value {value!r} "
        "for a result record"
    )
