"""The rule catalogue of ``repro check``.

Each module in this package implements one invariant as a
:class:`~repro.devtools.check.framework.Rule` subclass.
:func:`all_rules` builds a *fresh* instance of every rule — rules may
accumulate cross-module state for their ``finalize`` pass, so
instances are single-use and a new list must be built per run.
"""

from __future__ import annotations

from repro.devtools.check.framework import Rule
from repro.devtools.check.rules.atomic_io import AtomicIoRule
from repro.devtools.check.rules.bus_topics import BusTopicsRule
from repro.devtools.check.rules.cache_schema import CacheSchemaRule
from repro.devtools.check.rules.exceptions import ExceptionHygieneRule
from repro.devtools.check.rules.fleet_io import FleetIoRule
from repro.devtools.check.rules.lazy_imports import LazyImportRule
from repro.devtools.check.rules.locks import LockDisciplineRule
from repro.devtools.check.rules.obs_names import ObsNamesRule
from repro.devtools.check.rules.pools import ProcessPoolRule
from repro.devtools.check.rules.reachability import ReachabilityRule
from repro.devtools.check.rules.rng import RngDisciplineRule
from repro.devtools.check.rules.stats_package import StatsPackageRule

__all__ = [
    "AtomicIoRule",
    "BusTopicsRule",
    "CacheSchemaRule",
    "ExceptionHygieneRule",
    "FleetIoRule",
    "LazyImportRule",
    "LockDisciplineRule",
    "ObsNamesRule",
    "ProcessPoolRule",
    "ReachabilityRule",
    "RngDisciplineRule",
    "StatsPackageRule",
    "all_rules",
]

#: Every shipped rule class, in catalogue (rule-id) order.
RULE_CLASSES: tuple[type[Rule], ...] = (
    ExceptionHygieneRule,
    LazyImportRule,
    StatsPackageRule,
    AtomicIoRule,
    LockDisciplineRule,
    RngDisciplineRule,
    CacheSchemaRule,
    ObsNamesRule,
    BusTopicsRule,
    FleetIoRule,
    ProcessPoolRule,
    ReachabilityRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, sorted by rule id."""
    rules = [cls() for cls in RULE_CLASSES]
    rules.sort(key=lambda rule: rule.rule_id)
    return rules
