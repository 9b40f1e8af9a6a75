"""IMP002 — no scipy ``stats`` package in the runtime.

Importing scipy's ``stats`` package costs about half a second and
20 MiB, more than a median experiment driver at full statistics.  The
runtime needs only inverse CDFs from it, and those are the
``scipy.special`` ufuncs the package itself evaluates (see
:mod:`repro.utils.rng` and :func:`repro.utils.stats.poisson_interval`).
This rule keeps it out: under ``repro/`` it flags every import of the
package or of one of its modules (``import scipy.<stats>...``, ``from
scipy.<stats>... import ...``, ``from scipy import <stats>``), at module
or function level.  Tests may still import it as a reference.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.check.framework import Finding, ModuleContext, Rule

#: The dotted-name parts of the package kept out of the runtime.
BANNED = ("scipy", "stats")


def _imports_banned(node: ast.Import | ast.ImportFrom) -> bool:
    """Whether one import statement loads the banned package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        return False
    elif node.module == BANNED[0]:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        names = [node.module or ""]
    return any(tuple(name.split(".")[:2]) == BANNED for name in names)


class StatsPackageRule(Rule):
    """Flag any import of scipy's stats package under repro/."""

    rule_id = "IMP002"
    title = "no stats package from scipy"
    description = (
        "Nothing under repro/ imports scipy's stats package, at module "
        "or function level: it is slow to import, and the inverse CDFs "
        "the runtime needs are scipy.special ufuncs."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield IMP002 findings for one module."""
        if not module.module.startswith("repro/"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                _imports_banned(node)
            ):
                yield module.finding(
                    node,
                    self.rule_id,
                    "scipy's stats package costs ~0.5 s to import; call "
                    "the scipy.special ufunc its method evaluates instead",
                )
