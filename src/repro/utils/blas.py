"""One BLAS thread in the processes repro owns.

numpy's bundled OpenBLAS starts a helper thread per core when it loads,
and so does scipy's own copy.  No driver's linear algebra is large
enough to wake them (``tests/utils/test_blas.py`` holds each quick
driver to at most one tick of helper CPU), but each copy's helpers spin
at load: 0.05–0.1 s of CPU apiece on a two-core host, which on a shared
host also makes a process's CPU time erratic.  So the CLI's compute
commands, ``repro serve`` and the shared pool's workers call
:func:`one_blas_thread`; a plain ``import repro`` changes nothing.

Stdlib only, and it never imports numpy itself: a process serving only
cache hits must not pay for that import.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import sys

#: The variable OpenBLAS reads when it loads.
_ENV = "OPENBLAS_NUM_THREADS"

#: Thread setters of the OpenBLAS builds numpy ships (the scipy-openblas
#: wheels with 64-bit integers, then plain OpenBLAS).
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process and its children.

    A library loaded later reads the environment; one numpy has already
    loaded is set through its own ``*_set_num_threads`` with ``ctypes``.
    A thread count the user put in the environment stands.
    """
    if _ENV in os.environ:
        return
    os.environ[_ENV] = "1"
    numpy = sys.modules.get("numpy")
    if numpy is not None and numpy.__file__ is not None:
        _set_loaded_threads(pathlib.Path(numpy.__file__).parent, 1)


def _set_loaded_threads(package: pathlib.Path, threads: int) -> None:
    """Set the thread count of the OpenBLAS bundled next to ``package``
    (in ``<package>.libs``, as manylinux wheels ship it), if there is one."""
    for path in sorted(package.parent.glob(f"{package.name}.libs/*openblas*")):
        library = ctypes.CDLL(str(path))
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter(threads)
                return
