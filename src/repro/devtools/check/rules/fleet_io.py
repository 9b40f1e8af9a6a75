"""FLT001 — runner-side fleet code never touches master state directly.

The fleet split (DESIGN.md "Fleet") hinges on one ownership rule: the
archive, the result cache and the run index belong to the *master*.
Runners execute on hosts that share no filesystem with the master, so
any direct file IO in runner-side code is a latent split-brain bug —
it works in single-host tests (where the paths happen to exist) and
silently forks state the moment a runner lands on another machine.
All persistence must flow through the ``runner.*`` RPC surface
(``lookup`` proxies cache reads, ``ingest`` ships records for the
master to archive).  This rule checks the invariant statically over
``repro/fleet/``:

* no calls whose tail is a file-IO primitive (``open``, ``read_text``,
  ``write_text``, ``read_bytes``, ``write_bytes``, numpy's
  ``load``/``save``/``savez``/``savez_compressed``) or one of the
  repo's durability helpers (``atomic_write_text``,
  ``atomic_write_bytes``, ``append_line``, ``read_json_lines``);
* no imports — top-level or deferred — of the master-state modules
  ``repro.runtime.cache``, ``repro.runtime.datasets``,
  ``repro.analysis.index`` or the atomic-IO toolbox
  ``repro.utils.io``.

``repro/fleet/coordinator.py`` is exempt: it *is* the master side of
the protocol and legitimately drives the engine, cache and store.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.check.framework import (
    Finding,
    ModuleContext,
    Rule,
    dotted_call_name,
)

#: Call tails that read or write files (stdlib, pathlib and numpy).
IO_CALL_TAILS = frozenset(
    {
        "open",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "load",
        "save",
        "savez",
        "savez_compressed",
    }
)

#: The repo's own durability helpers (repro.utils.io).
IO_HELPER_TAILS = frozenset(
    {
        "atomic_write_text",
        "atomic_write_bytes",
        "append_line",
        "read_json_lines",
    }
)

#: Modules that hold (or write) master-owned state.
FORBIDDEN_MODULES = frozenset(
    {
        "repro.runtime.cache",
        "repro.runtime.datasets",
        "repro.analysis.index",
        "repro.utils.io",
        "repro.utils.journal",
    }
)

#: The one fleet module allowed to touch master state.
MASTER_SIDE = frozenset({"repro/fleet/coordinator.py"})


class FleetIoRule(Rule):
    """Flag direct file IO and master-state imports in runner-side code."""

    rule_id = "FLT001"
    title = "fleet runner-side IO isolation"
    description = (
        "Code under repro/fleet/ (except the master-side "
        "coordinator.py) must not open archive/index/cache files or "
        "import the modules that do — runners share no filesystem "
        "with the master, so all persistence goes through the "
        "runner.* RPC surface (lookup/ingest)."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield FLT001 findings for one module."""
        if not module.module.startswith("repro/fleet/"):
            return
        if module.module in MASTER_SIDE:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)

    def _check_call(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        """Findings for one call site."""
        name = dotted_call_name(node.func)
        if not name:
            return
        tail = name.split(".")[-1]
        if tail in IO_HELPER_TAILS:
            yield module.finding(
                node,
                self.rule_id,
                f"{name}(...) writes local files; runner-side fleet "
                "code has no filesystem in common with the master — "
                "ship the data through runner.ingest instead",
            )
        elif tail in IO_CALL_TAILS:
            yield module.finding(
                node,
                self.rule_id,
                f"{name}(...) is file IO in runner-side fleet code; "
                "archive/index/cache paths live on the master — use "
                "the runner.lookup / runner.ingest RPCs",
            )

    def _check_import(
        self,
        module: ModuleContext,
        node: ast.Import | ast.ImportFrom,
    ) -> Iterator[Finding]:
        """Findings for one import statement (deferred ones included)."""
        if isinstance(node, ast.ImportFrom):
            targets = [node.module or ""]
        else:
            targets = [alias.name for alias in node.names]
        for target in targets:
            if target in FORBIDDEN_MODULES or any(
                target.startswith(f"{banned}.")
                for banned in FORBIDDEN_MODULES
            ):
                yield module.finding(
                    node,
                    self.rule_id,
                    f"import of {target} in runner-side fleet code; "
                    "that module owns master-side state — proxy "
                    "through the runner.* RPC surface instead",
                )
