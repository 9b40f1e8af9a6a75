"""CLI-level tests: exit codes, output formats, baseline gate, self-check."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.devtools.check.cli import CHECK_JSON_SCHEMA

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: The committed repository baseline (satellite contract: empty).
COMMITTED_BASELINE = REPO_ROOT / ".repro-check-baseline.json"

#: Every key of the documented --json document, exactly.
JSON_DOCUMENT_KEYS = {
    "schema",
    "checked_files",
    "suppressed",
    "baseline",
    "baselined",
    "stale_baseline",
    "counts",
    "findings",
}

#: Every key of one finding object, exactly.
JSON_FINDING_KEYS = {"path", "module", "line", "col", "rule", "message", "context"}

_VIOLATION = (
    "import numpy as np\n"
    "RNG = np.random.default_rng(123)\n"
)


def _tree(tmp_path, files):
    root = tmp_path / "tree"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/mod.py": "X = 1\n"})
        assert main(["check", str(root)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/runtime/mod.py": _VIOLATION})
        assert main(["check", str(root)]) == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/mod.py": "X = 1\n"})
        assert main(["check", str(root), "--rule", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_baseline_file_exits_two(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/mod.py": "X = 1\n"})
        code = main(["check", str(root), "--baseline", str(tmp_path / "no.json")])
        assert code == 2


class TestTextOutput:
    def test_finding_lines_are_path_line_col_rule(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/runtime/mod.py": _VIOLATION})
        main(["check", str(root)])
        out = capsys.readouterr().out.strip().splitlines()
        assert out, "expected at least one finding line"
        for line in out:
            assert re.match(r"^.+\.py:\d+:\d+: [A-Z]+\d* ", line), line

    def test_rule_filter_limits_findings(self, tmp_path, capsys):
        source = _VIOLATION + 'open("x.json", "w")\n'
        root = _tree(tmp_path, {"repro/runtime/mod.py": source})
        main(["check", str(root), "--rule", "IO001"])
        out = capsys.readouterr().out
        assert "IO001" in out
        assert "RNG001" not in out

    def test_list_rules_names_all_six(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RNG001", "IO001", "IMP001", "IMP002", "LCK001", "EXC001", "SCH001",
            "POL001",
        ):
            assert rule_id in out


class TestJsonOutput:
    def test_document_schema(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/runtime/mod.py": _VIOLATION})
        assert main(["check", str(root), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert set(document) == JSON_DOCUMENT_KEYS
        assert document["schema"] == CHECK_JSON_SCHEMA
        assert document["checked_files"] == 1
        assert document["counts"].get("RNG001", 0) >= 1
        for finding in document["findings"]:
            assert set(finding) == JSON_FINDING_KEYS
            assert isinstance(finding["line"], int)

    def test_clean_document_exits_zero(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/mod.py": "X = 1\n"})
        assert main(["check", str(root), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["findings"] == []
        assert document["counts"] == {}


class TestBaselineGate:
    def test_write_then_check_against_baseline(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/runtime/mod.py": _VIOLATION})
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(root), "--write-baseline", str(baseline)]) == 0
        assert main(["check", str(root), "--baseline", str(baseline)]) == 0
        # A new violation on top of the baselined one still fails.
        (root / "repro/runtime/mod.py").write_text(
            _VIOLATION + "RNG2 = np.random.default_rng()\n", encoding="utf-8"
        )
        assert main(["check", str(root), "--baseline", str(baseline)]) == 1

    def test_stale_entries_warn_but_pass(self, tmp_path, capsys):
        root = _tree(tmp_path, {"repro/runtime/mod.py": _VIOLATION})
        baseline = tmp_path / "baseline.json"
        main(["check", str(root), "--write-baseline", str(baseline)])
        (root / "repro/runtime/mod.py").write_text("X = 1\n", encoding="utf-8")
        assert main(["check", str(root), "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().err

    def test_committed_baseline_is_discovered(self, tmp_path, capsys):
        baseline_dir = _tree(
            tmp_path, {"repro/runtime/mod.py": _VIOLATION}
        ).parent
        main(
            ["check", str(baseline_dir), "--write-baseline",
             str(baseline_dir / ".repro-check-baseline.json")]
        )
        assert main(["check", str(baseline_dir)]) == 0
        assert main(["check", str(baseline_dir), "--no-baseline"]) == 1


class TestSelfCheck:
    """The repository itself must satisfy its own gate."""

    def test_src_matches_committed_baseline(self, capsys):
        code = main(
            [
                "check",
                str(REPO_ROOT / "src"),
                "--baseline",
                str(COMMITTED_BASELINE),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, f"repro check src found new findings:\n{captured.out}"
        assert "stale" not in captured.err, captured.err

    def test_committed_baseline_is_empty(self):
        document = json.loads(COMMITTED_BASELINE.read_text(encoding="utf-8"))
        assert document["findings"] == [], (
            "the committed baseline must stay empty: fix violations "
            "instead of baselining them"
        )

    def test_deliberate_violation_fails_the_gate(self, tmp_path, capsys):
        """The acceptance smoke: a literal seed under a runtime root fails."""
        root = _tree(
            tmp_path,
            {
                "repro/runtime/sneaky.py": _VIOLATION,
                "repro/service/raw.py": 'fh = open("state.json", "w")\n',
            },
        )
        code = main(
            ["check", str(root), "--baseline", str(COMMITTED_BASELINE)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RNG001" in out
        assert "IO001" in out
