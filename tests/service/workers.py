"""The daemon's workers without its HTTP layer, and one-job claims.

``repro serve --workers N`` runs one in-process
:class:`~repro.fleet.runner.FleetRunner` whose client is the daemon's
:class:`~repro.fleet.coordinator.FleetCoordinator`.  :func:`local_workers`
builds exactly that over a store and an engine, starts it, and stops it
in the daemon's order: the coordinator first, so idle claims stop
waiting for work, then the runner, which finishes the jobs in hand.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.runner import FleetRunner


def workers_for(store, engine, workers=1, use_processes=False, fleet=None):
    """An unstarted runner of ``workers`` threads on a coordinator."""
    return FleetRunner(
        "in-process",
        workers=workers,
        use_processes=use_processes,
        client=fleet or FleetCoordinator(store, engine),
    )


@contextlib.contextmanager
def local_workers(
    store, engine, workers=2, use_processes=False, fleet=None
) -> Iterator[FleetRunner]:
    """Run the daemon's workers over ``store`` for the ``with`` body."""
    runner = workers_for(store, engine, workers, use_processes, fleet)
    runner.start()
    try:
        yield runner
    finally:
        runner.client.stop()
        runner.stop()


def claim_one(store, worker="?", identity=None):
    """Lease the first pending job in claim order to ``worker``, or None.

    The one-job form of :meth:`JobStore.claim`, which tests use to hold
    a job without running it.
    """
    _, leased = store.claim(worker, 1, lambda job: "lease", identity)
    return leased[0] if leased else None
