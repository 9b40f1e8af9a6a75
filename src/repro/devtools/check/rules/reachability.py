"""REACH001 — every module under ``repro/`` is reachable from an entry point.

A library grows modules that only their own tests import: alternative
implementations, out-of-scope scenarios, helpers a refactor orphaned.
They cost review, porting and test time while no command the package
ships ever runs them.  This rule builds the static import closure of
the package from its entry points and flags every module outside it.

Edges of the closure:

* every ``import`` / ``from ... import`` at any depth (function-level
  imports included), except those under ``if TYPE_CHECKING:``;
* every string literal naming a ``repro.<module>`` — the lazy
  ``__init__`` export tables and ``importlib`` calls name their
  targets that way;
* a reached module's parent packages are reached too (importing a
  submodule executes every enclosing ``__init__``).

Roots: :data:`ROOT_MODULES`, plus the ``repro`` imports of the
documented examples (``examples/*.py``) and ablations
(``benchmarks/bench_ablation_*.py``) found next to the checked ``src``
tree.  ``tests/`` is never a root: a module only a test imports is
exactly what this rule exists to catch.

The closure needs the whole package, so findings come from
:meth:`ReachabilityRule.finalize` and only when ``repro/cli.py`` was
among the checked files; a partial check stays quiet.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections.abc import Iterable, Iterator

from repro.devtools.check.framework import (
    Finding,
    ModuleContext,
    Rule,
    is_type_checking_guard,
)

#: The package's own entry points (dotted module names).
ROOT_MODULES = (
    "repro.cli",
    "repro.__main__",
    "repro.experiments.registry",
    "repro.analysis.analyzers",
)

#: Glob patterns, relative to the repository root, of the scripts whose
#: ``repro`` imports count as roots.
ROOT_SCRIPTS = ("examples/*.py", "benchmarks/bench_ablation_*.py")

#: The module whose presence marks a whole-package check.
_CLI_MODULE = "repro/cli.py"

#: A string literal that names a repro module (or a name inside one).
_DOTTED_RE = re.compile(r"repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def import_targets(tree: ast.Module, package: str) -> Iterator[str]:
    """Dotted names imported anywhere in ``tree`` or named by a string.

    ``package`` is the package relative imports resolve against.  For
    ``from a import b`` both ``a`` and ``a.b`` are yielded: ``b`` may be
    a submodule.  ``TYPE_CHECKING`` bodies are skipped.
    """

    def walk(node: ast.AST) -> Iterator[str]:
        if is_type_checking_guard(node):
            assert isinstance(node, ast.If)
            for statement in node.orelse:
                yield from walk(statement)
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            yield target
            for alias in node.names:
                yield f"{target}.{alias.name}"
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED_RE.fullmatch(node.value)
        ):
            yield node.value
        for child in ast.iter_child_nodes(node):
            yield from walk(child)

    yield from walk(tree)


class ReachabilityRule(Rule):
    """Flag modules no entry point reaches through imports."""

    rule_id = "REACH001"
    title = "module reachability"
    description = (
        "Every module under repro/ must be reachable from an entry "
        "point: the CLI, the experiment (driver) registry, the analyzer "
        "registry, or the repro imports of examples/*.py and "
        "benchmarks/bench_ablation_*.py.  Edges are imports at any "
        "depth (not under TYPE_CHECKING) and 'repro.<module>' string "
        "literals.  A module only tests import is dead code: delete it, "
        "or wire it into an entry point.  Reported only when "
        "repro/cli.py is among the checked files."
    )

    def __init__(self) -> None:
        self._modules: dict[str, ModuleContext] = {}
        self._edges: dict[str, set[str]] = {}
        self._repo_root: pathlib.Path | None = None

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Record one module's edges; findings come from :meth:`finalize`."""
        if not module.module.startswith("repro/"):
            return iter(())
        dotted = module.dotted
        package = (
            dotted
            if module.module.endswith("/__init__.py")
            else dotted.rpartition(".")[0]
        )
        self._modules[dotted] = module
        self._edges[dotted] = set(import_targets(module.tree, package))
        if module.module == _CLI_MODULE:
            # <root>/src/repro/cli.py -> <root>
            self._repo_root = module.path.resolve().parent.parent.parent
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        """Yield one finding per module outside the entry-point closure."""
        if self._repo_root is None:
            return
        reached = self._reached(self._root_targets(self._repo_root))
        for dotted in sorted(set(self._modules) - reached):
            module = self._modules[dotted]
            yield Finding(
                path=module.display_path,
                module=module.module,
                line=1,
                col=1,
                rule=self.rule_id,
                message=(
                    f"module {dotted} is not reachable from any entry "
                    "point (CLI, driver or analyzer registry, examples, "
                    "ablation benches); delete it or import it from one"
                ),
                context=module.line_text(1),
            )

    def _reached(self, roots: Iterable[str]) -> set[str]:
        """The closure of the recorded modules from ``roots``."""
        reached: set[str] = set()
        pending = [self._resolve(name) for name in roots]
        while pending:
            dotted = pending.pop()
            if dotted is None or dotted in reached:
                continue
            reached.add(dotted)
            parent = dotted.rpartition(".")[0]
            if parent:
                pending.append(self._resolve(parent))
            pending.extend(self._resolve(name) for name in self._edges[dotted])
        return reached

    def _resolve(self, name: str) -> str | None:
        """The longest recorded module that ``name`` is or lies inside."""
        while name:
            if name in self._modules:
                return name
            name = name.rpartition(".")[0]
        return None

    def _root_targets(self, repo_root: pathlib.Path) -> list[str]:
        """Entry-point modules plus the repro imports of root scripts."""
        targets = list(ROOT_MODULES)
        for pattern in ROOT_SCRIPTS:
            for script in sorted(repo_root.glob(pattern)):
                try:
                    tree = ast.parse(script.read_text(encoding="utf-8"))
                except (OSError, SyntaxError, ValueError):
                    continue
                targets.extend(
                    name
                    for name in import_targets(tree, "")
                    if name.startswith("repro")
                )
        return targets
