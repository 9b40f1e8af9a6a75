"""OBS002 — dataset-bus topics are built by the central registry.

The dataset bus broadcasts per-sweep datasets under dotted topic
names, and ``repro.obs.names`` is their single registry: the
``sweep_topic()`` constructor for the ``datasets.sweep.*`` family, the
bus's one topic family.  Dashboards subscribe by these names, the
journal replays by them, and ``require_topic`` rejects strangers at
publish and subscribe time — but only at run time, on whatever code
path happens to publish first.  An inline literal at a publish site
forks the namespace exactly the way OBS001 describes for metric names:
the subscriber watching ``names.sweep_topic(key)`` never sees the
publisher's ``"dataset.sweep.<key>"``.  This rule checks the invariant
statically: the topic argument of every bus publish call
(``publish_init``, ``publish_mod`` — on the façade or a bus object)
must be a ``sweep_topic(...)`` call or a variable, never a string
literal and never a registry attribute.  No ``names`` constant is a
topic: ``TOPIC_SWEEP_PREFIX`` is the bare family prefix, which
``require_topic`` rejects.

Variables and other dynamic expressions pass: publishers that carry a
registry-built topic in an attribute (the sweep publisher's
``self.topic``) are the normal case.  The ``repro/obs/`` package is
exempt — the bus handles topics generically and the registry is where
the literals live.
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

#: Bus callables taking a topic name as their first argument.
PUBLISH_CALLS = frozenset({"publish_init", "publish_mod"})

#: Local aliases under which the registry module is imported.
NAMES_ALIASES = frozenset({"names", "obs_names"})

#: The registry's topic constructor.
TOPIC_BUILDER = "sweep_topic"


class BusTopicsRule(Rule):
    """Flag literal or registry-constant topic names at publish sites."""

    rule_id = "OBS002"
    title = "dataset-bus topic registry"
    description = (
        "Topic names passed to the dataset bus "
        "(publish_init/publish_mod) must be sweep_topic(...) "
        "constructions from repro.obs.names, or variables — never "
        "inline string literals or registry attributes.  The "
        "repro/obs/ package itself is exempt."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield OBS002 findings for one module."""
        if not module.module.startswith("repro/"):
            return
        if module.module.startswith("repro/obs/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_call_name(node.func)
            if not name:
                continue
            tail = name.split(".")[-1]
            if tail not in PUBLISH_CALLS:
                continue
            yield from self._check_topic_argument(module, node, tail)

    def _check_topic_argument(
        self, module: ModuleContext, node: ast.Call, function: str
    ) -> Iterator[Finding]:
        """Findings for the topic argument of one publish call."""
        argument = self._topic_argument(node)
        if argument is None:
            return
        if isinstance(argument, ast.Constant) and isinstance(
            argument.value, str
        ):
            yield module.finding(
                node,
                self.rule_id,
                f"{function}({argument.value!r}, ...) hard-codes a bus "
                "topic; build it with names.sweep_topic(key) so "
                "publishers and subscribers share one namespace (no "
                "TOPIC_* constant of repro.obs.names is a topic)",
            )
            return
        if (
            isinstance(argument, ast.Attribute)
            and isinstance(argument.value, ast.Name)
            and argument.value.id in NAMES_ALIASES
        ):
            yield module.finding(
                node,
                self.rule_id,
                f"{argument.value.id}.{argument.attr} is not a bus topic; "
                "build topics with names.sweep_topic(key) (the "
                "registry's constants are prefixes, not topics)",
            )

    @staticmethod
    def _topic_argument(node: ast.Call) -> ast.AST | None:
        """The topic argument of one publish call, if present.

        A ``sweep_topic(...)`` construction in argument position is
        registry-sanctioned and reported as absent (nothing to check).
        """
        argument: ast.AST | None = None
        if node.args:
            argument = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "topic":
                    argument = keyword.value
                    break
        if isinstance(argument, ast.Call):
            builder = dotted_call_name(argument.func) or ""
            if builder.split(".")[-1] == TOPIC_BUILDER:
                return None
        return argument
