"""Baseline files: tracked pre-existing debt that must not grow.

A baseline is a committed JSON document listing findings that existed
when the gate was introduced.  ``repro check --baseline FILE``
subtracts them — matching on the location-independent key
``(module, rule, context)``, never on line numbers — so old debt is
visible but non-blocking while any *new* finding still fails the run.
Entries whose finding has since been fixed are reported as *stale* so
the file shrinks over time instead of fossilising.

The committed repo baseline lives at ``.repro-check-baseline.json`` in
the repository root and is intentionally empty: PR 6 fixed every real
violation rather than baselining it.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections.abc import Iterable, Sequence

from repro.devtools.check.framework import Finding
from repro.errors import ConfigurationError

#: Bump when the baseline document layout changes.
BASELINE_SCHEMA = 1

#: File name of the committed repository baseline, discovered by
#: walking up from the scanned paths.
BASELINE_FILENAME = ".repro-check-baseline.json"


@dataclasses.dataclass
class BaselineMatch:
    """The outcome of subtracting a baseline from a result's findings."""

    new: list[Finding]
    baselined: list[Finding]
    stale: list[dict[str, str]]


def load_baseline(path: str | pathlib.Path) -> list[dict[str, str]]:
    """Read a baseline file; returns its entry documents.

    Raises :class:`~repro.errors.ConfigurationError` on a missing or
    malformed file — a gate pointed at a broken baseline must fail
    loudly, not silently check nothing.
    """
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read baseline {path}: {error}") from None
    except ValueError as error:
        raise ConfigurationError(
            f"baseline {path} is not valid JSON: {error}"
        ) from None
    if (
        not isinstance(document, dict)
        or document.get("schema") != BASELINE_SCHEMA
        or not isinstance(document.get("findings"), list)
    ):
        raise ConfigurationError(
            f"baseline {path} is not a schema-{BASELINE_SCHEMA} "
            "repro-check baseline document"
        )
    entries: list[dict[str, str]] = []
    for entry in document["findings"]:
        if not isinstance(entry, dict):
            raise ConfigurationError(f"baseline {path} holds a non-object entry")
        entries.append(
            {
                "module": str(entry.get("module", "")),
                "rule": str(entry.get("rule", "")),
                "context": str(entry.get("context", "")),
            }
        )
    return entries


def write_baseline(
    path: str | pathlib.Path, findings: Sequence[Finding]
) -> pathlib.Path:
    """Write the baseline document for the given findings (atomic)."""
    from repro.utils.io import atomic_write_text

    entries = sorted(
        (
            {"module": f.module, "rule": f.rule, "context": f.context}
            for f in findings
        ),
        key=lambda e: (e["module"], e["rule"], e["context"]),
    )
    document = {"schema": BASELINE_SCHEMA, "findings": entries}
    return pathlib.Path(atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n"
    ))


def apply_baseline(
    findings: Sequence[Finding], entries: Iterable[dict[str, str]]
) -> BaselineMatch:
    """Split findings into new vs baselined; report stale entries.

    Matching is multiset-style: a baseline entry absorbs at most one
    finding with the same ``(module, rule, context)`` key, so two new
    copies of one old violation still surface one new finding.
    """
    budget: dict[tuple[str, str, str], int] = {}
    for entry in entries:
        key = (entry["module"], entry["rule"], entry["context"])
        budget[key] = budget.get(key, 0) + 1
    new: list[Finding] = []
    baselined: list[Finding] = []
    for finding in findings:
        key = finding.key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    stale = [
        {"module": module, "rule": rule, "context": context}
        for (module, rule, context), remaining in sorted(budget.items())
        for _ in range(remaining)
    ]
    return BaselineMatch(new=new, baselined=baselined, stale=stale)


def discover_baseline(
    paths: Iterable[str | pathlib.Path],
) -> pathlib.Path | None:
    """Find the committed baseline above the scanned paths, if any.

    Walks each path's ancestors (nearest first) looking for
    ``.repro-check-baseline.json``; the first hit wins.  Returns None
    when no scanned path sits inside a repository carrying one.
    """
    for argument in paths:
        current = pathlib.Path(argument).resolve()
        if current.is_file():
            current = current.parent
        for candidate_dir in (current, *current.parents):
            candidate = candidate_dir / BASELINE_FILENAME
            if candidate.is_file():
                return candidate
    return None
