"""The mypy half of the lint gate, runnable wherever mypy is installed.

The runtime container deliberately ships without mypy (the checker is
pure stdlib), so these tests skip locally unless a dev environment
provides it; the CI ``lint`` job installs mypy and runs the same
targets, so the gate is always enforced before merge.
"""

from __future__ import annotations

import pathlib

import pytest

mypy_api = pytest.importorskip(
    "mypy.api", reason="mypy is not installed in this environment"
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: The strict tier: modules other layers trust blindly (see mypy.ini).
STRICT_TARGETS = [
    "src/repro/errors.py",
    "src/repro/utils/io.py",
    "src/repro/utils/journal.py",
    "src/repro/runtime/records.py",
    "src/repro/devtools",
]


class TestMypyGate:
    def test_strict_modules_pass(self):
        stdout, stderr, status = mypy_api.run(
            ["--config-file", str(REPO_ROOT / "mypy.ini")]
            + [str(REPO_ROOT / target) for target in STRICT_TARGETS]
        )
        assert status == 0, f"mypy reported errors:\n{stdout}\n{stderr}"

    def test_py_typed_marker_present(self):
        assert (REPO_ROOT / "src/repro/py.typed").exists()
