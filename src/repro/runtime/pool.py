"""The one process pool: every front-end's cache misses compute here.

The engine (``repro sweep --parallel``) and the fleet point loop of
every runner (the daemon's workers included) call :func:`submit`, which
runs the engine's ``_execute_safe`` with the caller's span context on
one process-wide ``ProcessPoolExecutor``; results are persisted through
``RunEngine.finish_worker_result`` or the coordinator's ``ingest``.
The pool starts on the first miss,
importing the experiment registry first so forked workers inherit numpy
(a process serving only cache hits never imports it).  It has
``min(requested, usable_cpus())`` workers, each running OpenBLAS on one
thread, and is replaced only when a caller asks for more.  A dead worker
fails the pool's futures with ``BrokenExecutor`` and the next
:func:`submit` starts a fresh pool; a child made by ``os.fork()`` starts
with none.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.runtime.engine import RunSpec

_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_size = 0


def usable_cpus() -> int:
    """CPUs this process may actually schedule onto."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def size() -> int:
    """Worker count of the live pool (0 while none is running)."""
    return _size


def submit(spec: RunSpec, workers: int) -> Future:
    """Run ``_execute_safe(spec, obs.context())`` on the shared pool.

    ``workers`` is the caller's upper bound on the pool size.
    """
    from concurrent.futures import BrokenExecutor

    from repro.runtime.engine import _execute_safe

    context = obs.context()
    with _lock:
        try:
            return _live(workers).submit(_execute_safe, spec, context)
        except BrokenExecutor:
            _replace(None, 0)
            return _live(workers).submit(_execute_safe, spec, context)


def shutdown() -> None:
    """Stop the live pool and wait for its workers to exit.

    Runs at interpreter exit, while the executor's modules still exist.
    A process leaving through ``os._exit`` must call it itself, or the
    pool's workers outlive it.
    """
    global _pool, _size
    with _lock:
        pool, _pool, _size = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def _live(workers: int) -> ProcessPoolExecutor:
    """The live pool, grown to ``min(workers, usable_cpus())`` if smaller."""
    wanted = max(1, min(workers, usable_cpus()))
    pool = _pool
    if pool is None or wanted > _size:
        from concurrent.futures import ProcessPoolExecutor

        # Load the driver stack once in the parent so forked workers
        # inherit it instead of each paying the numpy import.
        import repro.experiments.registry  # noqa: F401

        from repro.utils.blas import one_blas_thread

        pool = ProcessPoolExecutor(
            max_workers=wanted, initializer=one_blas_thread
        )
        _replace(pool, wanted)
    return pool


def _replace(pool: ProcessPoolExecutor | None, workers: int) -> None:
    """Swap in a new live pool (caller holds ``_lock``); the old one
    stops once its queued work is done."""
    global _pool, _size
    old, _pool, _size = _pool, pool, workers
    if old is not None:
        old.shutdown(wait=False)


def _forget_in_child() -> None:
    """Fork hook: the child owns no pool and a fresh, unheld lock."""
    global _lock, _pool, _size
    _lock, _pool, _size = threading.Lock(), None, 0


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_in_child)
