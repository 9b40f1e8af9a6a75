"""ARTIQ-inspired run engine for the reproduction's experiment layer.

The subsystem splits into six modules:

- :mod:`repro.runtime.scan` — composable parameter-scan spaces
  (`LinearScan`, `LogScan`, `ListScan`, `GridScan`) plus the CLI spec
  parser.
- :mod:`repro.runtime.records` — lossless ``ExperimentResult`` ⇄ JSON.
- :mod:`repro.runtime.datasets` — named run products with
  ``set_dataset``/``get_dataset`` semantics, archived per run directory.
- :mod:`repro.runtime.cache` — content-addressed result memoisation.
- :mod:`repro.runtime.engine` — the :class:`RunEngine` scheduling single
  runs, batches, and whole sweeps across a process pool.
- :mod:`repro.runtime.pool` — that pool: one per process, shared by the
  engine and the fleet runners (the service daemon's workers included).

Submodules are imported lazily (PEP 562) so a cached CLI invocation
never pays the numpy import.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public names and the submodule each lives in (resolved lazily).
_LAZY_EXPORTS = {
    "Scan": "repro.runtime.scan",
    "LinearScan": "repro.runtime.scan",
    "LogScan": "repro.runtime.scan",
    "ListScan": "repro.runtime.scan",
    "GridScan": "repro.runtime.scan",
    "parse_scan": "repro.runtime.scan",
    "scan_from_describe": "repro.runtime.scan",
    "DatasetStore": "repro.runtime.datasets",
    "store_from_result": "repro.runtime.datasets",
    "ResultCache": "repro.runtime.cache",
    "fingerprint": "repro.runtime.cache",
    "RunEngine": "repro.runtime.engine",
    "RunSpec": "repro.runtime.engine",
    "RunOutcome": "repro.runtime.engine",
    "SweepOutcome": "repro.runtime.engine",
    "default_root": "repro.runtime.engine",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports("repro.runtime", globals(), _LAZY_EXPORTS)
