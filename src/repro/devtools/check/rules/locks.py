"""LCK001 — lock discipline in the concurrent state holders.

The job store, the fleet coordinator and the archive index are mutated
by claim threads, HTTP handler threads and long-pollers at once.  Their
convention: every *public* entry point takes the instance lock
(``with self._lock`` / ``with self._changed`` / ``with
self._pool_lock``) before touching shared attributes, while private
``_helpers`` document "caller holds the lock" and rely on it.

This rule checks the half of that convention a machine can see: an
instance attribute that is mutated under a lock somewhere in the class
must not *also* be mutated outside any lock in a public method — that
is either a forgotten ``with`` or an attribute that was never really
lock-managed, and both read as data races under the distributed-fleet
direction on the roadmap.  Private methods (leading underscore,
including ``__init__``) are exempt: they are the documented
caller-holds-the-lock helpers.

Scope: the modules that actually hold cross-thread state —
``repro/service/store.py``, ``repro/fleet/coordinator.py``,
``repro/service/api.py`` and ``repro/analysis/index.py``.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.devtools.check.framework import Finding, ModuleContext, Rule

#: Modules whose classes are held to the locking convention.
SCOPED_MODULES = frozenset(
    {
        "repro/service/store.py",
        "repro/fleet/coordinator.py",
        "repro/service/api.py",
        "repro/analysis/index.py",
    }
)

#: ``self.<attr>`` names that count as locks when used in ``with``.
_LOCK_ATTR_RE = re.compile(r"(^|_)(lock|changed|cond|condition|mutex)\b")

#: Method calls that mutate a container in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def _self_attribute(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_context(item: ast.withitem) -> bool:
    """Whether one ``with`` item acquires a lock-ish self attribute."""
    expression = item.context_expr
    if isinstance(expression, ast.Call):  # e.g. self._lock.acquire_timeout()
        expression = expression.func
    attr = _self_attribute(expression)
    return attr is not None and bool(_LOCK_ATTR_RE.search(attr))


def _mutated_attributes(node: ast.AST) -> Iterator[str]:
    """Self attributes this single AST node mutates (not its children).

    Covers plain/augmented/annotated assignment to ``self.x``,
    subscript assignment and deletion (``self.x[k] = v``,
    ``del self.x[k]``), attribute deletion, and in-place container
    mutation through a known mutator method (``self.x.append(...)``).
    """
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            attr = _self_attribute(node.func.value)
            if attr is not None:
                yield attr
        return
    for target in targets:
        if isinstance(target, ast.Subscript):
            target = target.value
        attr = _self_attribute(target)
        if attr is not None:
            yield attr


class _Mutation:
    """One attribute mutation site inside a class body."""

    def __init__(
        self, attr: str, node: ast.AST, method: str, locked: bool
    ) -> None:
        self.attr = attr
        self.node = node
        self.method = method
        self.locked = locked


def _collect_mutations(cls: ast.ClassDef) -> list[_Mutation]:
    """Every self-attribute mutation in a class, with lock context."""
    mutations: list[_Mutation] = []

    def walk(node: ast.AST, method: str, locked: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_method = method
            child_locked = locked
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if method == "":
                    child_method = child.name
                    child_locked = False
                # Nested functions inherit the enclosing context.
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                if any(_is_lock_context(item) for item in child.items):
                    child_locked = True
            if method != "" or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for attr in _mutated_attributes(child):
                    mutations.append(
                        _Mutation(attr, child, child_method, child_locked)
                    )
            walk(child, child_method, child_locked)

    walk(cls, "", False)
    return mutations


class LockDisciplineRule(Rule):
    """Flag lock-managed attributes mutated without the lock."""

    rule_id = "LCK001"
    title = "lock discipline"
    description = (
        "In the concurrent state holders (service store/api, fleet "
        "coordinator, archive index), an instance attribute mutated under 'with "
        "self._lock'-style blocks anywhere in the class must not also "
        "be mutated outside a lock in a public method.  Private "
        "'_helper' methods are the documented caller-holds-the-lock "
        "exemption."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield LCK001 findings for one module."""
        if module.module not in SCOPED_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            mutations = _collect_mutations(node)
            guarded = {m.attr for m in mutations if m.locked}
            for mutation in mutations:
                if mutation.locked or mutation.attr not in guarded:
                    continue
                if mutation.method.startswith("_") or not mutation.method:
                    continue
                yield module.finding(
                    mutation.node,
                    self.rule_id,
                    f"self.{mutation.attr} is mutated under a lock "
                    f"elsewhere in {node.name} but "
                    f"{mutation.method}() mutates it without one; "
                    "take the lock (or move the mutation into a "
                    "caller-holds-the-lock _helper)",
                )
