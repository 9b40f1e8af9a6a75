"""The rule framework behind ``repro check``.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Finding` objects; the :class:`Checker` walks a set of paths,
parses every ``.py`` file once, dispatches it to each selected rule,
and folds in the two escape hatches that keep a lint gate honest:

* **inline suppressions** — ``# repro: allow[RULE1,RULE2]`` on the
  offending physical line silences exactly those rules on exactly that
  line (``allow[*]`` silences every rule);
* **a committed baseline** — see :mod:`repro.devtools.check.baseline` —
  so pre-existing debt is tracked without blocking new work.

Rules are scoped by *module identity*, not absolute location: a file's
identity is its path from the last ``repro`` directory component
(``repro/runtime/cache.py``), which makes rule scoping work identically
for the real tree and for fixture trees tests synthesise under a tmp
directory.  Files outside any ``repro`` directory keep their bare file
name and therefore match no ``repro/``-scoped rule.

Pure stdlib on purpose: ``repro check`` must run in a container that
has no numpy (the CI lint job installs nothing but mypy).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from collections.abc import Iterable, Iterator, Sequence

#: Matches one inline suppression comment.  The bracket list holds
#: comma-separated rule ids or ``*``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\s]+)\]")

#: Finding emitted for files the parser rejects.
SYNTAX_RULE_ID = "SYNTAX"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as it was reached from the scan arguments
    (what a human clicks on); ``module`` is the location-independent
    identity (``repro/...`` or a bare file name) that the baseline and
    the JSON output key on, so a baseline written on one machine
    matches on any other.
    """

    path: str
    module: str
    line: int
    col: int
    rule: str
    message: str
    context: str

    def render(self) -> str:
        """The human one-liner: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def key(self) -> tuple[str, str, str]:
        """The location-independent identity used for baseline matching.

        Line numbers are deliberately absent: unrelated edits move
        violations around a file without changing what they are.
        """
        return (self.module, self.rule, self.context)

    def to_json(self) -> dict[str, object]:
        """The JSON document of one finding (``schema`` documented in
        DESIGN.md, "Static analysis")."""
        return {
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "context": self.context,
        }


class ModuleContext:
    """One parsed source file handed to every rule.

    Exposes the raw ``source``, the split ``lines``, the parsed
    ``tree`` and the normalised ``module`` identity, plus the
    :meth:`finding` factory rules use so every finding carries a
    consistent context snippet.
    """

    def __init__(self, path: pathlib.Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: list[str] = source.splitlines()
        self.module = module_identity(path)
        self.tree: ast.Module = ast.parse(source)

    @property
    def dotted(self) -> str:
        """The dotted module name (``repro.runtime.cache``) of this file.

        Files outside a ``repro`` tree fold to their stem; package
        ``__init__`` files fold to the package name.
        """
        return dotted_name(self.module)

    def line_text(self, line: int) -> str:
        """The stripped source text of a 1-based physical line."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.display_path,
            module=self.module,
            line=line,
            col=col,
            rule=rule,
            message=message,
            context=self.line_text(line),
        )

    def suppressed_rules(self, line: int) -> set[str]:
        """Rule ids allowed by an inline comment on a physical line."""
        match = _ALLOW_RE.search(self.line_text(line))
        if match is None:
            return set()
        return {
            token.strip()
            for token in match.group(1).split(",")
            if token.strip()
        }


class Rule:
    """Base class of one named invariant.

    Subclasses set :attr:`rule_id`, :attr:`title` and
    :attr:`description`, and implement :meth:`check`.  Rules that need
    the whole run's context (cross-module invariants) additionally
    implement :meth:`finalize`, which the checker calls once after
    every module has been dispatched.
    """

    #: Stable identifier (``RNG001``) used in output, suppressions,
    #: ``--rule`` filters and the baseline.
    rule_id: str = "RULE000"
    #: One-line human name shown by ``repro check --list-rules``.
    title: str = ""
    #: Longer catalogue entry (what the invariant is and why).
    description: str = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (default: none)."""
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        """Yield run-level findings after every module was checked."""
        return iter(())


@dataclasses.dataclass
class CheckResult:
    """Everything one ``Checker.run`` produced.

    ``findings`` excludes inline-suppressed ones (counted in
    ``suppressed``); baseline subtraction happens in the CLI layer, not
    here, so library callers always see the full picture.
    """

    findings: list[Finding]
    suppressed: int
    checked_files: int


class Checker:
    """Runs a set of rules over a set of files or directory trees."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def run(self, paths: Iterable[str | pathlib.Path]) -> CheckResult:
        """Check every ``.py`` file reachable from ``paths``.

        Unparseable files yield one ``SYNTAX`` finding each instead of
        aborting the run — a lint gate must report a broken file, not
        crash on it.  Findings are sorted by (path, line, rule) so the
        output and the JSON document are deterministic.
        """
        findings: list[Finding] = []
        suppressed = 0
        checked = 0
        for path, display in iter_python_files(paths):
            checked += 1
            try:
                source = path.read_text(encoding="utf-8")
                module = ModuleContext(path, display, source)
            except (OSError, SyntaxError, ValueError) as error:
                findings.append(
                    Finding(
                        path=display,
                        module=module_identity(path),
                        line=getattr(error, "lineno", None) or 1,
                        col=1,
                        rule=SYNTAX_RULE_ID,
                        message=f"file could not be parsed: {error}",
                        context="",
                    )
                )
                continue
            for rule in self.rules:
                for finding in rule.check(module):
                    allowed = module.suppressed_rules(finding.line)
                    if finding.rule in allowed or "*" in allowed:
                        suppressed += 1
                    else:
                        findings.append(finding)
        for rule in self.rules:
            findings.extend(rule.finalize())
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        return CheckResult(
            findings=findings, suppressed=suppressed, checked_files=checked
        )


def iter_python_files(
    paths: Iterable[str | pathlib.Path],
) -> Iterator[tuple[pathlib.Path, str]]:
    """Yield ``(path, display_path)`` for every ``.py`` under ``paths``.

    Directories are walked recursively in sorted order (deterministic
    output); hidden directories and ``__pycache__`` are skipped.  The
    display path preserves how the file was reached from the argument,
    so output stays relative when the arguments were.
    """
    for argument in paths:
        base = pathlib.Path(argument)
        if base.is_file():
            yield base, str(base)
            continue
        for path in sorted(base.rglob("*.py")):
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in path.relative_to(base).parts
            ):
                continue
            yield path, str(path)


def module_identity(path: pathlib.Path) -> str:
    """The location-independent identity of a source file.

    The path from the *last* ``repro`` directory component downwards,
    ``/``-joined (``repro/runtime/cache.py``); a file outside any
    ``repro`` directory is identified by its bare name.  Rules scope on
    this identity, which is what lets tests exercise scoped rules on
    fixture trees synthesised under a tmp directory.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.name


def dotted_name(module: str) -> str:
    """Dotted module name for an identity (``repro/utils/io.py`` →
    ``repro.utils.io``; package ``__init__`` files fold to the package)."""
    trimmed = module[:-3] if module.endswith(".py") else module
    dotted = trimmed.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def dotted_call_name(node: ast.AST) -> str:
    """The dotted source text of a call target (``np.random.seed``).

    Resolves chains of :class:`ast.Attribute` over a :class:`ast.Name`
    root; anything else (subscripts, nested calls) yields ``""`` so
    callers simply fail to match.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def is_type_checking_guard(node: ast.AST) -> bool:
    """Whether an ``if`` guards a ``typing.TYPE_CHECKING`` block."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def toplevel_imports(
    tree: ast.Module,
) -> Iterator[ast.Import | ast.ImportFrom]:
    """Every import executed at module import time.

    Walks statements recursively through module-level ``if``/``try``
    blocks (those run at import time too) but never into function or
    class bodies, and skips ``TYPE_CHECKING`` guards — imports there
    cost nothing at runtime.
    """

    def walk(statements: Iterable[ast.stmt]) -> Iterator[ast.Import | ast.ImportFrom]:
        for statement in statements:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                yield statement
            elif isinstance(statement, ast.If):
                if is_type_checking_guard(statement):
                    yield from walk(statement.orelse)
                else:
                    yield from walk(statement.body)
                    yield from walk(statement.orelse)
            elif isinstance(statement, ast.Try):
                yield from walk(statement.body)
                for handler in statement.handlers:
                    yield from walk(handler.body)
                yield from walk(statement.orelse)
                yield from walk(statement.finalbody)
            elif isinstance(statement, (ast.With, ast.ClassDef)):
                # Class bodies execute at import time as well.
                yield from walk(statement.body)

    yield from walk(tree.body)
