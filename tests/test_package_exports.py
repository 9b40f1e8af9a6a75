"""Every name a ``repro`` package exports resolves.

A package's ``__all__`` and its PEP 562 lazy-export table
(``_LAZY_EXPORTS``) name attributes that exist only once something
reads them: a stale entry fails at the first access, not at import.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if module.ispkg:
            names.append(module.name)
    return sorted(names)


@pytest.mark.parametrize("package_name", _packages())
def test_every_exported_name_resolves(package_name):
    package = importlib.import_module(package_name)
    exported = set(getattr(package, "__all__", ()))
    exported |= set(getattr(package, "_LAZY_EXPORTS", {}))
    missing = [name for name in sorted(exported) if not hasattr(package, name)]
    assert missing == [], f"{package_name} exports names it cannot resolve"
