"""Framework-level tests: identity, suppression, syntax."""

from __future__ import annotations

import pathlib

from repro.devtools.check import Checker
from repro.devtools.check.framework import (
    SYNTAX_RULE_ID,
    dotted_name,
    module_identity,
)
from repro.devtools.check.rules.rng import RngDisciplineRule


class TestModuleIdentity:
    def test_path_from_last_repro_component(self):
        path = pathlib.Path("/tmp/x/repro/runtime/cache.py")
        assert module_identity(path) == "repro/runtime/cache.py"

    def test_nested_repro_components_use_the_last(self):
        path = pathlib.Path("/repro/old/repro/utils/io.py")
        assert module_identity(path) == "repro/utils/io.py"

    def test_file_outside_repro_uses_bare_name(self):
        assert module_identity(pathlib.Path("/tmp/tests/test_x.py")) == "test_x.py"

    def test_dotted_name_folds_init_to_package(self):
        assert dotted_name("repro/utils/__init__.py") == "repro.utils"
        assert dotted_name("repro/runtime/cache.py") == "repro.runtime.cache"


class TestSuppressions:
    def test_inline_allow_silences_one_rule_on_one_line(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                import numpy as np
                a = np.random.default_rng(1)  # repro: allow[RNG001]
                b = np.random.default_rng(2)
                """
            },
            [RngDisciplineRule()],
        )
        # Leading blank line from the dedented literal: the unsuppressed
        # violation sits on physical line 4.
        assert [f.line for f in findings] == [4]

    def test_allow_star_silences_every_rule(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                import numpy as np
                a = np.random.default_rng(1)  # repro: allow[*]
                """
            },
            [RngDisciplineRule()],
        )
        assert findings == []

    def test_allow_for_other_rule_does_not_silence(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                import numpy as np
                a = np.random.default_rng(1)  # repro: allow[IO001]
                """
            },
            [RngDisciplineRule()],
        )
        assert [f.rule for f in findings] == ["RNG001"]

    def test_suppressed_counted(self, make_tree):
        root = make_tree(
            {
                "repro/mod.py": """
                import numpy as np
                a = np.random.default_rng(1)  # repro: allow[RNG001]
                """
            }
        )
        result = Checker([RngDisciplineRule()]).run([root])
        assert result.suppressed == 1
        assert result.findings == []


class TestSyntaxFindings:
    def test_unparseable_file_reports_syntax_not_crash(self, make_tree):
        root = make_tree({"repro/broken.py": "def f(:\n"})
        result = Checker([RngDisciplineRule()]).run([root])
        assert [f.rule for f in result.findings] == [SYNTAX_RULE_ID]
        assert result.checked_files == 1
