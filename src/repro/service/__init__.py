"""The experiment service: persistent job queue + JSON-RPC API.

The ARTIQ-master-inspired always-on layer over the run engine
(see DESIGN.md "The service layer"):

- :mod:`repro.service.jobs` — the job model and lifecycle state machine.
- :mod:`repro.service.store` — the crash-safe persistent queue under
  ``<root>/queue/`` (a JSONL journal of job transitions + job snapshots).
- :mod:`repro.service.api` — :class:`ExperimentService`, the JSON-RPC
  over HTTP daemon behind ``repro serve``; its workers are an
  in-process :class:`repro.fleet.runner.FleetRunner` draining the
  queue in priority order.
- :mod:`repro.service.client` — :class:`ServiceClient`, the stdlib
  client behind ``repro submit/status/watch/cancel``.

Submodules resolve lazily (PEP 562) so the CLI's cached fast path
stays import-light.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public names and the submodule each lives in (resolved lazily).
_LAZY_EXPORTS = {
    "Job": "repro.service.jobs",
    "JobStore": "repro.service.store",
    "ExperimentService": "repro.service.api",
    "ServiceClient": "repro.service.client",
    "read_service_file": "repro.service.api",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__ = lazy_exports("repro.service", globals(), _LAZY_EXPORTS)
