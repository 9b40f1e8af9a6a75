"""POL001 — one process pool per process.

The engine, the service scheduler and the fleet runner all compute on
the single pool of :mod:`repro.runtime.pool`, which owns the sizing,
worker-death and fork rules.  This rule keeps a second pool from
coming back: outside ``repro/runtime/pool.py`` it flags every call
named ``ProcessPoolExecutor`` or ``Pool`` (``multiprocessing.Pool``,
``mp.Pool``, or ``Pool`` imported from ``multiprocessing``).
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

#: The one module allowed to construct a process pool.
POOL_MODULE = "repro/runtime/pool.py"

#: Call-name tails that construct a process pool.
POOL_CONSTRUCTORS = frozenset({"ProcessPoolExecutor", "Pool"})


class ProcessPoolRule(Rule):
    """Flag process-pool construction outside repro/runtime/pool.py."""

    rule_id = "POL001"
    title = "one process pool"
    description = (
        "ProcessPoolExecutor and multiprocessing.Pool are constructed "
        "only in repro/runtime/pool.py; everything else submits through "
        "repro.runtime.pool.submit, so a process has one host-sized pool."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield POL001 findings for one module."""
        if not module.module.startswith("repro/") or (
            module.module == POOL_MODULE
        ):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_call_name(node.func)
            if name.rsplit(".", 1)[-1] in POOL_CONSTRUCTORS:
                yield module.finding(
                    node,
                    self.rule_id,
                    f"{name}(...) builds a second process pool; submit "
                    "through repro.runtime.pool.submit instead",
                )
