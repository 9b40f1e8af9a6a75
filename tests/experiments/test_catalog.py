"""The driver-free catalog against the drivers it describes."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.experiments.catalog import CATALOG, check_parameters


def test_catalog_equals_each_drivers_keyword_only_signature():
    assert list(CATALOG) == list(registry.EXPERIMENTS)
    for key, (driver, description) in registry.EXPERIMENTS.items():
        assert CATALOG[key] == (
            description, tuple(registry.experiment_parameters(key))
        ), key


def test_registry_checks_through_the_catalog():
    assert registry.check_parameters is check_parameters
    check_parameters("e6", ["pump_mw"])
    with pytest.raises(ConfigurationError, match=r"E6 does not accept .*'pmp'"):
        check_parameters("E6", ["pmp"])
    with pytest.raises(ConfigurationError, match="unknown experiment 'E42'"):
        check_parameters("E42", [])


def test_a_daemon_validating_a_submission_imports_no_driver():
    script = textwrap.dedent("""
        import sys
        from repro.service.api import ExperimentService
        ExperimentService._validate("E6", {"pump_mw": 2.0})
        heavy = {"numpy", "scipy", "repro.experiments.registry"}
        print(sorted(heavy & set(sys.modules)))
    """)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"
