"""IMP001 — lazy-import discipline on the cached-CLI path.

PR 1's headline win: a fully cached ``repro`` invocation never imports
numpy (~15x faster cold-start), because the CLI, the lazy package
``__init__`` files and everything they pull in are import-light.  The
invariant regresses the moment anyone adds one top-level ``numpy``
import — or, more subtly, a top-level import of a *heavy* repro module
— anywhere in that closure.  This rule pins the closure explicitly:

* modules in :data:`LIGHT_MODULES` must not import numpy/scipy (or
  other heavy third-party roots) at module level;
* they must not import a repro module *outside* the closure at module
  level — that is how heaviness sneaks in transitively;
* importing a name *through* a lazy package (``from repro.utils import
  RandomStream``) is flagged too: PEP 562 resolution would eagerly
  import the numpy-backed defining module.

Function-level imports and ``TYPE_CHECKING`` blocks are always fine —
that is exactly where the heavy imports are supposed to live.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.check.framework import (
    Finding,
    ModuleContext,
    Rule,
    toplevel_imports,
)

#: Third-party roots that must never load on the cached-CLI path.
HEAVY_ROOTS = frozenset({"numpy", "scipy", "matplotlib", "pandas"})

#: Packages whose ``__init__`` resolves exports lazily (PEP 562):
#: importing a non-module name through them defeats the laziness.
LAZY_PACKAGES = frozenset(
    {
        "repro",
        "repro.experiments",
        "repro.utils",
        "repro.runtime",
        "repro.service",
        "repro.analysis",
    }
)

#: The import closure of a cached CLI invocation (dotted names).  Kept
#: in lockstep with ``tests/devtools``'s runtime no-numpy check: adding
#: a module here means committing to keeping it import-light.
LIGHT_MODULES = frozenset(
    {
        "repro",
        "repro.__main__",
        "repro._lazy",
        "repro.cli",
        "repro.constants",
        "repro.errors",
        "repro.experiments",
        "repro.experiments.base",
        "repro.utils",
        "repro.utils.io",
        "repro.utils.journal",
        "repro.utils.tables",
        "repro.obs",
        "repro.obs.bus",
        "repro.obs.clock",
        "repro.obs.dashboard",
        "repro.obs.journal",
        "repro.obs.metrics",
        "repro.obs.names",
        "repro.obs.render",
        "repro.obs.trace",
        "repro.runtime",
        "repro.runtime.cache",
        "repro.runtime.datasets",
        "repro.runtime.engine",
        "repro.runtime.pool",
        "repro.runtime.records",
        "repro.runtime.scan",
        "repro.fleet",
        "repro.fleet.client",
        "repro.fleet.coordinator",
        "repro.fleet.protocol",
        "repro.fleet.runner",
        "repro.service",
        "repro.service.api",
        "repro.service.client",
        "repro.service.datasets",
        "repro.service.jobs",
        "repro.service.store",
        "repro.analysis",
        "repro.analysis.analyzers",
        "repro.analysis.index",
        "repro.analysis.pipelines",
        "repro.analysis.report",
    }
)


def is_light_module(dotted: str) -> bool:
    """Whether a dotted module name is inside the cached-CLI closure."""
    return dotted in LIGHT_MODULES or dotted.startswith("repro.devtools")


class LazyImportRule(Rule):
    """Flag imports that would load numpy on the cached-CLI path."""

    rule_id = "IMP001"
    title = "lazy-import discipline"
    description = (
        "Modules on the cached-CLI path (the CLI, the lazy package "
        "__init__ files, the runtime/service/analysis persistence "
        "closure) must not top-level-import numpy/scipy, any repro "
        "module outside that closure, or a lazily-exported name "
        "through a PEP 562 package.  Heavy imports belong inside the "
        "command handlers and driver functions."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield IMP001 findings for one module."""
        if not is_light_module(module.dotted):
            return
        for statement in toplevel_imports(module.tree):
            yield from self._check_import(module, statement)

    def _check_import(
        self, module: ModuleContext, statement: ast.Import | ast.ImportFrom
    ) -> Iterator[Finding]:
        """Findings for one module-level import statement."""
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                root = alias.name.split(".", 1)[0]
                if root in HEAVY_ROOTS:
                    yield self._heavy(module, statement, alias.name)
                elif root == "repro" and not is_light_module(alias.name):
                    yield self._outside(module, statement, alias.name)
            return
        if statement.level:  # relative import: resolve against the package
            base = module.dotted.split(".")
            target = ".".join(
                base[: len(base) - statement.level]
                + ([statement.module] if statement.module else [])
            )
        else:
            target = statement.module or ""
        root = target.split(".", 1)[0]
        if root in HEAVY_ROOTS:
            yield self._heavy(module, statement, target)
            return
        if root != "repro":
            return
        if not is_light_module(target):
            yield self._outside(module, statement, target)
            return
        if target in LAZY_PACKAGES:
            for alias in statement.names:
                candidate = f"{target}.{alias.name}"
                if not is_light_module(candidate):
                    yield module.finding(
                        statement,
                        self.rule_id,
                        f"'from {target} import {alias.name}' resolves a "
                        "lazy export at import time, eagerly loading its "
                        "numpy-backed defining module; import that module "
                        "directly inside the function that needs it",
                    )

    def _heavy(
        self, module: ModuleContext, node: ast.AST, name: str
    ) -> Finding:
        """A heavy third-party import on the light path."""
        return module.finding(
            node,
            self.rule_id,
            f"top-level import of {name} on the cached-CLI path defeats "
            "the no-numpy fast path; move it inside the function that "
            "needs it",
        )

    def _outside(
        self, module: ModuleContext, node: ast.AST, name: str
    ) -> Finding:
        """A repro import from outside the light closure."""
        return module.finding(
            node,
            self.rule_id,
            f"top-level import of {name}, which is outside the "
            "cached-CLI import closure, can pull numpy in transitively; "
            "import it inside the function that needs it (or add it to "
            "LIGHT_MODULES if it is genuinely import-light)",
        )
