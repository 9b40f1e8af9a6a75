"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones are executed end to
end in a subprocess so import-time or runtime regressions in the public
API surface here.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: The documented examples (README "Examples").
EXPECTED_EXAMPLES = {
    "cross_polarized_pairs.py",
    "four_photon_states.py",
    "heralded_single_photons.py",
    "quickstart.py",
    "time_bin_entanglement.py",
}

#: Examples fast enough to execute in the unit-test suite.
FAST_EXAMPLES = ["cross_polarized_pairs.py"]


class TestExamples:
    def test_expected_inventory(self):
        assert {p.name for p in ALL_EXAMPLES} == EXPECTED_EXAMPLES

    @pytest.mark.parametrize("script", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, script):
        py_compile.compile(str(script), doraise=True)

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_fast_examples_run(self, name):
        completed = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / name)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip()
