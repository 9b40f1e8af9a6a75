"""Wire-level constants and payload helpers of the fleet protocol.

Shared by the master-side coordinator and the runner-side client, so
both agree on lease timing defaults and on how a spec crosses the
JSON-RPC boundary.  Stdlib-only and numpy-free: this module is in
the lazy-import closure (IMP001) because :mod:`repro.service.api`
imports the coordinator, which imports this.

Lease protocol in one paragraph: a runner ``register``\\ s (master
assigns its id and echoes the timing contract), then loops
``claim → execute → ingest → complete`` while a background thread
``heartbeat``\\ s.  Every lease is fenced twice — the store's O_EXCL
claim marker (cross-process) and the coordinator's lease table keyed
by runner id (cross-host); a cached job served at a claim needs
neither, as it ends inside the claim's hold of the journal lock.  A
runner that misses heartbeats for one lease TTL is declared lost: its
leases are released, the jobs return to ``pending`` with their attempt
counter bumped, and any RPC the dead runner's ghost still sends is
rejected because its lease entry is gone.  Completions are therefore
exactly-once *per lease*, and results are idempotent beyond that
because runs are content-addressed.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.runtime.engine import RunSpec

#: Seconds without a heartbeat after which a runner's leases expire.
DEFAULT_LEASE_TTL_S = 10.0

#: How often a healthy runner heartbeats (TTL / 5 — several beats must
#: be lost before the fence trips, so one slow GC pause is harmless).
HEARTBEATS_PER_TTL = 5

#: Most jobs one claim ends or leases (a runner thread leases one at a
#: time; cached run jobs are served inline).  Large enough that a
#: fully-cached drain is dominated by the master's batched journal
#: append, small enough to bound one pass under the store lock.
DEFAULT_CLAIM_BATCH = 32

#: Longest a claim that finds nothing waits for a job to become
#: pending before it answers empty, seconds.
IDLE_POLL_S = 0.2

#: Runner lifecycle states in the coordinator registry.
RUNNER_ALIVE = "alive"
RUNNER_LOST = "lost"

#: ``classify`` verdicts for :meth:`repro.service.store.JobStore.claim`.
VERDICT_LEASE = "lease"
VERDICT_COMPUTE = "compute"


def heartbeat_interval(lease_ttl_s: float) -> float:
    """The heartbeat cadence implied by a lease TTL."""
    return max(0.2, float(lease_ttl_s) / HEARTBEATS_PER_TTL)


def spec_payload(spec: RunSpec) -> dict[str, object]:
    """A :class:`RunSpec` as a JSON-native RPC parameter block."""
    return {
        "experiment_id": spec.experiment_id,
        "seed": spec.seed,
        "quick": spec.quick,
        "params": spec.params_dict(),
    }


def spec_from_payload(payload: Mapping[str, object]) -> RunSpec:
    """Rebuild the :class:`RunSpec` a runner shipped over the wire."""
    return RunSpec.make(
        str(payload["experiment_id"]),
        seed=int(payload.get("seed", 0)),
        quick=bool(payload.get("quick", False)),
        params=dict(payload.get("params") or {}),
    )
