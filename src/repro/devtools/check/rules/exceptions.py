"""EXC001 — exception hygiene.

The runners' claim threads and the engine's pool workers run user
code; when they fail, the *only* diagnostic artifact is the traceback
that travels into the failure manifest and the job document (PR 3's
failure-reporting contract).  A ``bare except:`` or an ``except
Exception: pass`` anywhere on those paths silently destroys that
evidence — a worker dies and the queue just looks idle.

The rule flags:

* bare ``except:`` clauses — they also swallow ``KeyboardInterrupt``
  and ``SystemExit``, wedging Ctrl-C on daemon threads;
* ``except Exception`` / ``except BaseException`` handlers whose body
  is pure filler (``pass``, ``...``, a string, ``continue``) — broad
  catches are legitimate at isolation boundaries, but only when the
  handler *does* something with the failure (records it, logs it,
  re-raises, transitions a job).

Scope: the whole ``repro`` package.  Narrow handlers
(``except OSError: pass``) stay allowed — ignoring a specific,
expected failure is a decision; ignoring everything is a bug.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.check.framework import Finding, ModuleContext, Rule

#: Exception names considered "catch everything".
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _broad_names_in(annotation: ast.expr | None) -> bool:
    """Whether an except type expression names a catch-all class."""
    if annotation is None:
        return False
    nodes: list[ast.expr] = (
        list(annotation.elts)
        if isinstance(annotation, ast.Tuple)
        else [annotation]
    )
    for node in nodes:
        name = node.attr if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.Name):
            name = node.id
        if name in _BROAD_NAMES:
            return True
    return False


def _is_filler(statement: ast.stmt) -> bool:
    """Whether a statement does nothing with the caught exception."""
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    if isinstance(statement, ast.Expr) and isinstance(
        statement.value, ast.Constant
    ):
        return True  # docstring or bare `...`
    return False


class ExceptionHygieneRule(Rule):
    """Flag handlers that silently swallow worker tracebacks."""

    rule_id = "EXC001"
    title = "exception hygiene"
    description = (
        "No bare 'except:' anywhere, and no 'except Exception' / "
        "'except BaseException' whose body is pure filler: broad "
        "catches must record, log, transition or re-raise.  Narrow "
        "expected-failure handlers (except OSError: pass) remain "
        "allowed."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield EXC001 findings for one module."""
        if not module.module.startswith("repro/"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    node,
                    self.rule_id,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit "
                    "and every traceback; catch the exceptions this code "
                    "actually expects",
                )
                continue
            if _broad_names_in(node.type) and all(
                _is_filler(statement) for statement in node.body
            ):
                yield module.finding(
                    node,
                    self.rule_id,
                    "'except Exception' with a do-nothing body destroys "
                    "the failure evidence the service's manifests depend "
                    "on; record/log/re-raise, or narrow the exception type",
                )
