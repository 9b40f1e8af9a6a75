"""IO001 — atomic-IO discipline.

The runtime, service and analysis layers all persist state under a
shared engine root that concurrent engines, daemons and clients
read while it is being written.  PR 3 exists because ad-hoc writes
corrupted shared roots; since then every persisted file goes through
:mod:`repro.utils.io` (temp file + ``os.replace``, or fsynced
journal appends).  This rule machine-checks that no raw write path
creeps back into those layers:

* ``open(path, "w"/"a"/"x"/...)`` — a torn half-written file is
  directly observable by a concurrent reader;
* ``json.dump(obj, handle)`` — always writes through a raw handle;
* ``Path.write_text`` / ``Path.write_bytes`` — non-atomic on POSIX;
* ``np.save`` / ``np.savez`` / ``np.savez_compressed`` straight to a
  path — the blessed pattern serialises into an ``io.BytesIO`` buffer
  first and hands the bytes to ``atomic_write_bytes``.

Scope: ``repro/runtime/``, ``repro/service/`` and ``repro/analysis/``
— the three packages that write under shared roots.  ``repro/utils/io.py``
itself is the implementation of the discipline and lives outside the
scoped packages.
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

#: Package prefixes (module identities) whose writes must be atomic.
SCOPED_PREFIXES = (
    "repro/runtime/",
    "repro/service/",
    "repro/analysis/",
)

#: ``open`` mode characters implying a write.
_WRITE_MODE_CHARS = frozenset("wax+")


def _write_mode(node: ast.Call) -> str | None:
    """The literal write mode of an ``open`` call, if statically visible."""
    mode: ast.AST | None = node.args[1] if len(node.args) > 1 else None
    if mode is None:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and _WRITE_MODE_CHARS.intersection(mode.value)
    ):
        return mode.value
    return None


class AtomicIoRule(Rule):
    """Flag raw write paths in the shared-root persistence layers."""

    rule_id = "IO001"
    title = "atomic-IO discipline"
    description = (
        "Files under the engine root are read by concurrent processes, "
        "so every write in repro/runtime, repro/service and "
        "repro/analysis must route through repro.utils.io "
        "(atomic_write_text / atomic_write_bytes / append_line).  Raw "
        "open(..., 'w'), json.dump-to-handle, Path.write_text/bytes "
        "and numpy save-to-path calls are flagged."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield IO001 findings for one module."""
        if not module.module.startswith(SCOPED_PREFIXES):
            return
        yield from self._walk(module, module.tree, buffer_names=frozenset())

    def _walk(
        self,
        module: ModuleContext,
        scope: ast.AST,
        buffer_names: frozenset[str],
    ) -> Iterator[Finding]:
        """Walk one lexical scope, tracking in-memory buffer names.

        Function scopes are entered recursively with the set of names
        bound to ``io.BytesIO()``/``StringIO()`` in that function, so
        ``np.savez_compressed(buffer, ...)`` into a local buffer — the
        blessed buffer-then-replace pattern — is not flagged.
        """
        for node in ast.iter_child_nodes(scope):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                yield from self._walk(
                    module, node, _buffer_assignments(node)
                )
                continue
            if isinstance(node, ast.Call):
                finding = self._check_call(module, node, buffer_names)
                if finding is not None:
                    yield finding
            yield from self._walk(module, node, buffer_names)

    def _check_call(
        self,
        module: ModuleContext,
        node: ast.Call,
        buffer_names: frozenset[str],
    ) -> Finding | None:
        """One call site: a finding, or None when it is clean."""
        name = dotted_call_name(node.func)
        if not name:
            return None
        tail = name.rsplit(".", 1)[-1]
        if name == "open":
            mode = _write_mode(node)
            if mode is not None:
                return module.finding(
                    node,
                    self.rule_id,
                    f"raw open(..., {mode!r}) under a shared engine root "
                    "can expose a torn file to concurrent readers; use "
                    "repro.utils.io.atomic_write_text/bytes (or "
                    "append_line for journals)",
                )
            return None
        if name.endswith("json.dump"):
            return module.finding(
                node,
                self.rule_id,
                "json.dump writes through a raw handle; serialise with "
                "json.dumps and write via repro.utils.io.atomic_write_text",
            )
        if tail in ("write_text", "write_bytes"):
            return module.finding(
                node,
                self.rule_id,
                f"Path.{tail} is not atomic; use "
                f"repro.utils.io.atomic_{tail} instead",
            )
        if tail in ("savez", "savez_compressed") or name.endswith(
            ("np.save", "numpy.save")
        ):
            target = node.args[0] if node.args else None
            if isinstance(target, ast.Name) and target.id in buffer_names:
                return None  # buffer-then-replace: the blessed pattern
            return module.finding(
                node,
                self.rule_id,
                f"{tail} straight to a path is not atomic; serialise "
                "into io.BytesIO and write via "
                "repro.utils.io.atomic_write_bytes",
            )
        return None


def _buffer_assignments(
    function: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> frozenset[str]:
    """Names bound to an in-memory buffer within one function body."""
    names: set[str] = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        called = dotted_call_name(node.value.func)
        if called.rsplit(".", 1)[-1] not in ("BytesIO", "StringIO"):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)
