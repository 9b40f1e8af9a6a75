"""One OpenBLAS thread where repro owns the process, and nowhere else.

Each case runs in a fresh interpreter: OpenBLAS reads its thread count
when it loads, and pinning this test process would leak into the rest
of the suite.
"""

import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Prints ``<OPENBLAS_NUM_THREADS or -> <numpy's OpenBLAS threads>``
#: after the script's body has run.
_PROBE = """
import ctypes, os, pathlib, sys
import numpy
libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
paths = sorted(libs.glob("*openblas*"))
if not paths:
    print("no-openblas"); sys.exit()
library = ctypes.CDLL(str(paths[0]))
getter = next(
    getattr(library, name) for name in (
        "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_", "openblas_get_num_threads",
    ) if hasattr(library, name)
)
print(os.environ.get("OPENBLAS_NUM_THREADS", "-"), getter())
"""


def _probe(body: str, env_threads: str | None = None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    script = textwrap.dedent(body) + _PROBE
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    output = completed.stdout.strip().splitlines()[-1]
    if output == "no-openblas":
        pytest.skip("numpy ships no OpenBLAS next to it here")
    return output


@pytest.fixture(scope="module")
def threads_by_default():
    """numpy's own OpenBLAS thread count in a fresh process."""
    threads = int(_probe("import numpy").split()[1])
    if threads < 2:
        pytest.skip("OpenBLAS starts one thread here; nothing to pin")
    return threads


def test_loaded_library_is_pinned_through_ctypes(threads_by_default):
    body = """
    import numpy
    from repro.utils.blas import one_blas_thread
    one_blas_thread()
    """
    assert _probe(body) == "1 1"


def test_library_loaded_later_reads_the_environment(threads_by_default):
    body = """
    from repro.utils.blas import one_blas_thread
    one_blas_thread()
    """
    assert _probe(body) == "1 1"


def test_a_thread_count_the_user_set_stands(threads_by_default):
    body = """
    import numpy
    from repro.utils.blas import one_blas_thread
    one_blas_thread()
    """
    assert _probe(body, env_threads="2") == "2 2"


def test_a_plain_import_pins_nothing(threads_by_default):
    body = """
    import repro, repro.experiments.registry, repro.runtime.pool
    """
    assert _probe(body) == f"- {threads_by_default}"


def test_pool_workers_run_one_thread(threads_by_default):
    body = """
    import ctypes, pathlib
    import numpy
    from repro.runtime import pool

    def worker_threads():
        return _threads()

    def _threads():
        libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
        library = ctypes.CDLL(str(sorted(libs.glob("*openblas*"))[0]))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, name):
                return getattr(library, name)()

    inside = pool._live(1).submit(worker_threads).result()
    pool.shutdown()
    assert inside == 1, inside
    """
    # The parent process itself is left alone.
    assert _probe(body) == f"- {threads_by_default}"


def test_no_driver_runs_multithreaded_blas(threads_by_default):
    """Each quick driver, run in a process that pins nothing, leaves the
    OpenBLAS helper threads idle: at most one tick of their CPU time.

    The helpers spin at load, so the script loads every library a driver
    uses, waits until their CPU time stops moving, and only then reads
    it around each run.
    """
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc task table to read thread CPU time from")
    script = textwrap.dedent(
        """
        import os, threading, time
        import scipy.linalg, scipy.optimize, scipy.special
        from repro.experiments.registry import EXPERIMENTS

        MAIN = threading.get_native_id()

        def helper_ticks():
            total = 0
            for tid in os.listdir("/proc/self/task"):
                if int(tid) == MAIN:
                    continue
                try:
                    with open(f"/proc/self/task/{tid}/stat") as fh:
                        fields = fh.read().rpartition(")")[2].split()
                except FileNotFoundError:
                    continue
                total += int(fields[11]) + int(fields[12])  # utime + stime
            return total

        def idle_ticks():
            last, still = helper_ticks(), 0
            while still < 4:
                time.sleep(0.05)
                now = helper_ticks()
                still = still + 1 if now == last else 0
                last = now
            return last

        for key, (driver, _) in EXPERIMENTS.items():
            before = idle_ticks()
            driver(seed=0, quick=True)
            print(key, helper_ticks() - before)
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    ticks = dict(line.split() for line in completed.stdout.splitlines())
    assert len(ticks) == 9, completed.stdout
    busy = {key: int(value) for key, value in ticks.items() if int(value) > 1}
    assert not busy, busy
