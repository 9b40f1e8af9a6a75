"""RNG001 — RNG discipline.

Every stochastic draw in the library flows from a single integer seed
through :class:`repro.utils.rng.RandomStream`; that is the whole
reproducibility story behind the paper-value pins.  PR 2 found (and
fixed) a hard-coded ``default_rng(12345)`` inside the fringe-scan
bootstrap that silently decoupled E7/E8 error bars from the experiment
seed.  This rule machine-checks the invariant:

* no ``default_rng`` call with a **literal** seed — a constant seed
  hidden below the driver layer cannot be varied by the caller;
* no ``default_rng()`` with **no** seed — OS entropy is never
  replayable;
* no legacy global seeding (``np.random.seed``, ``random.seed``) or
  legacy ``RandomState`` generators anywhere;
* no ``RandomStream(<literal>)`` — streams are built from caller
  seeds, not constants;
* no direct ``np.random.Philox`` construction — ``RandomStream`` owns
  the counter/key derivation and the cursor; a hand-built Philox
  would silently fork the reproducibility contract.

``repro/utils/rng.py`` itself is exempt (it is the one place allowed
to touch ``default_rng`` and ``Philox``), as are tests and examples,
which live outside the ``repro`` package identity this rule scopes on.
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

#: The module allowed to construct raw numpy generators.
EXEMPT_MODULES = frozenset({"repro/utils/rng.py"})


def _is_literal_number(node: ast.AST | None) -> bool:
    """Whether an argument node is a numeric literal (incl. ``-5``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    )


class RngDisciplineRule(Rule):
    """Flag literal-seeded, unseeded or legacy RNG construction."""

    rule_id = "RNG001"
    title = "RNG discipline"
    description = (
        "Random draws must flow from the caller's seed through "
        "repro.utils.rng.RandomStream.  Literal-seeded or unseeded "
        "default_rng calls, legacy np.random.seed / random.seed global "
        "seeding, RandomState generators, literal-seeded RandomStream "
        "construction, and direct np.random.Philox construction "
        "(RandomStream owns the counter-based key and cursor) are flagged "
        "everywhere except repro/utils/rng.py."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield RNG001 findings for one module."""
        if not module.module.startswith("repro/"):
            return
        if module.module in EXEMPT_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_call_name(node.func)
            if not name:
                continue
            tail = name.rsplit(".", 1)[-1]
            if tail == "default_rng":
                seed = self._seed_argument(node)
                if seed is None:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"unseeded {name}() draws OS entropy and is never "
                        "replayable; derive a generator from the experiment "
                        "seed via repro.utils.rng.RandomStream",
                    )
                elif _is_literal_number(seed):
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"literal-seeded {name}(...) pins a constant seed "
                        "below the driver layer; thread the caller's seed "
                        "through repro.utils.rng.RandomStream instead",
                    )
            elif name.endswith("random.seed"):
                yield module.finding(
                    node,
                    self.rule_id,
                    f"global {name}(...) mutates process-wide RNG state; "
                    "use a repro.utils.rng.RandomStream instance instead",
                )
            elif tail == "Philox":
                yield module.finding(
                    node,
                    self.rule_id,
                    f"direct {name}(...) construction bypasses the "
                    "counter-based key/position scheme; draw from a "
                    "repro.utils.rng.RandomStream instead",
                )
            elif tail == "RandomState":
                yield module.finding(
                    node,
                    self.rule_id,
                    f"legacy {name}(...) generator; use "
                    "repro.utils.rng.RandomStream (numpy Generator API)",
                )
            elif tail == "RandomStream" and _is_literal_number(
                self._seed_argument(node)
            ):
                yield module.finding(
                    node,
                    self.rule_id,
                    "literal-seeded RandomStream(...); seeds come from the "
                    "caller (driver parameter or derived child stream), "
                    "never from a constant",
                )

    @staticmethod
    def _seed_argument(node: ast.Call) -> ast.AST | None:
        """The seed argument of a generator/stream constructor, if any."""
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "seed":
                return keyword.value
        return None
