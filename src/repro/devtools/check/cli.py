"""The ``repro check`` command: flag handling, rendering, exit codes.

Kept out of :mod:`repro.cli` so the main CLI module stays a thin
dispatcher; :func:`run_check` receives the parsed
:class:`argparse.Namespace` built there.

Exit codes follow the repo convention: ``0`` clean, ``1`` any
finding, ``2`` for configuration errors (unknown rule id — raised as
:class:`~repro.errors.ConfigurationError` and mapped by ``main``).

The ``--json`` document (``"schema": 2``) is part of the tool's
contract — see DESIGN.md, "Static analysis"::

    {
      "schema": 2,
      "checked_files": 63,
      "suppressed": 2,            # inline `# repro: allow[...]` hits
      "counts": {"RNG001": 1},    # findings per rule id
      "findings": [               # sorted
        {"path", "module", "line", "col", "rule", "message", "context"}
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import textwrap
from collections.abc import Sequence

from repro.devtools.check.framework import Checker, CheckResult, Finding
from repro.devtools.check.rules import all_rules
from repro.errors import ConfigurationError

#: Bump when the ``--json`` document layout changes (2: the baseline
#: keys are gone).
CHECK_JSON_SCHEMA = 2


def default_paths() -> list[str]:
    """What ``repro check`` scans when no path argument is given.

    ``src`` when the working directory has one (the layout of this
    repository), otherwise the working directory itself.
    """
    return ["src"] if pathlib.Path("src").is_dir() else ["."]


def run_check(args: argparse.Namespace) -> int:
    """Execute ``repro check`` from parsed arguments; returns exit code."""
    if args.list_rules:
        return _list_rules()
    paths = list(args.paths) or default_paths()
    if args.update_digests:
        return _update_digests(paths)
    rules = all_rules()
    if args.rules:
        wanted = {rule_id.upper() for rule_id in args.rules}
        known = {rule.rule_id for rule in rules}
        unknown = sorted(wanted - known)
        if unknown:
            raise ConfigurationError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(sorted(known))} "
                "(see 'repro check --list-rules')"
            )
        rules = [rule for rule in rules if rule.rule_id in wanted]
    result = Checker(rules).run(paths)
    if args.json:
        print(json.dumps(_json_document(result), indent=2, sort_keys=True))
        return 1 if result.findings else 0
    return _render_text(result)


def _list_rules() -> int:
    """Print the rule catalogue (id, title, wrapped description)."""
    for rule in all_rules():
        print(f"{rule.rule_id}  {rule.title}")
        print(
            textwrap.fill(
                rule.description,
                width=76,
                initial_indent="    ",
                subsequent_indent="    ",
            )
        )
        print()
    return 0


def _update_digests(paths: Sequence[str]) -> int:
    """Re-pin the cache-schema digest manifest from the scanned tree."""
    from repro.devtools.check.rules.cache_schema import (
        manifest_path,
        update_manifest,
    )

    document = update_manifest(paths)
    modules = document["modules"]
    count = len(modules) if isinstance(modules, dict) else 0
    print(
        f"pinned digests for {count} module(s) "
        f"(CACHE_SCHEMA {document['cache_schema']}) in {manifest_path()}"
    )
    return 0


def _json_document(result: CheckResult) -> dict[str, object]:
    """Build the schema-2 ``--json`` document."""
    return {
        "schema": CHECK_JSON_SCHEMA,
        "checked_files": result.checked_files,
        "suppressed": result.suppressed,
        "counts": _counts(result.findings),
        "findings": [finding.to_json() for finding in result.findings],
    }


def _counts(findings: Sequence[Finding]) -> dict[str, int]:
    """Finding counts per rule id."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return counts


def _render_text(result: CheckResult) -> int:
    """Human output: one line per finding plus a summary line."""
    for finding in result.findings:
        print(finding.render())
    parts = [
        f"{len(result.findings)} finding(s)",
        f"{result.checked_files} file(s) checked",
    ]
    if result.suppressed:
        parts.append(f"{result.suppressed} suppressed inline")
    print(", ".join(parts), file=sys.stderr)
    return 1 if result.findings else 0
