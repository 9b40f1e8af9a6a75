"""Per-rule trigger / non-trigger fixtures for every shipped rule."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from repro.devtools.check import Checker
from repro.devtools.check.rules import all_rules
from repro.devtools.check.rules.atomic_io import AtomicIoRule
from repro.devtools.check.rules.bus_topics import BusTopicsRule
from repro.devtools.check.rules.cache_schema import (
    CacheSchemaRule,
    symbol_digest,
)
from repro.devtools.check.rules.exceptions import ExceptionHygieneRule
from repro.devtools.check.rules.fleet_io import FleetIoRule
from repro.devtools.check.rules.lazy_imports import (
    LIGHT_MODULES,
    LazyImportRule,
)
from repro.devtools.check.rules.locks import LockDisciplineRule
from repro.devtools.check.rules.obs_names import ObsNamesRule
from repro.devtools.check.rules.pools import ProcessPoolRule
from repro.devtools.check.rules.reachability import ReachabilityRule
from repro.devtools.check.rules.rng import RngDisciplineRule
from repro.devtools.check.rules.stats_package import StatsPackageRule


def _rules_of(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


class TestRuleRegistry:
    def test_six_rules_with_unique_ids(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) >= 6
        assert len(set(ids)) == len(ids)
        assert all(rule.title and rule.description for rule in rules)

    def test_instances_are_fresh_per_call(self):
        assert all_rules()[0] is not all_rules()[0]


class TestRngRule:
    def test_flags_literal_unseeded_and_legacy(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                import numpy as np
                import random
                a = np.random.default_rng(42)
                b = np.random.default_rng()
                np.random.seed(7)
                random.seed(7)
                c = np.random.RandomState(3)
                """
            },
            [RngDisciplineRule()],
        )
        assert len(findings) == 5
        assert {f.rule for f in findings} == {"RNG001"}

    def test_parameter_seeded_and_exempt_module_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/stats.py": """
                import numpy as np
                def boot(seed):
                    return np.random.default_rng(seed)
                """,
                "repro/utils/rng.py": """
                import numpy as np
                STREAM = np.random.default_rng(0)
                """,
                "tests/test_x.py": """
                import numpy as np
                rng = np.random.default_rng(1234)
                """,
            },
            [RngDisciplineRule()],
        )
        assert findings == []

    def test_literal_seeded_randomstream_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                from repro.utils.rng import RandomStream
                def f(seed):
                    ok = RandomStream(seed)
                    bad = RandomStream(1234)
                    return ok, bad
                """
            },
            [RngDisciplineRule()],
        )
        assert len(findings) == 1
        assert "RandomStream" in findings[0].message


class TestAtomicIoRule:
    def test_flags_raw_write_paths(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/mod.py": """
                import json
                import numpy as np
                def f(path, obj, arrays):
                    with open(path, "w") as fh:
                        json.dump(obj, fh)
                    path.write_text("x")
                    path.write_bytes(b"x")
                    np.savez_compressed(path, **arrays)
                """
            },
            [AtomicIoRule()],
        )
        assert len(findings) == 5
        assert {f.rule for f in findings} == {"IO001"}

    def test_reads_and_buffered_savez_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/mod.py": """
                import io
                import numpy as np
                from repro.utils.io import atomic_write_bytes
                def save(path, arrays):
                    buffer = io.BytesIO()
                    np.savez_compressed(buffer, **arrays)
                    atomic_write_bytes(path, buffer.getvalue())
                def read(path):
                    with open(path) as fh:
                        return fh.read()
                """
            },
            [AtomicIoRule()],
        )
        assert findings == []

    def test_out_of_scope_package_not_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/utils/io.py": """
                def atomic_write_text(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                """
            },
            [AtomicIoRule()],
        )
        assert findings == []


class TestLazyImportRule:
    def test_flags_heavy_outside_and_lazy_exports(self, run_rules):
        findings = run_rules(
            {
                "repro/cli.py": """
                import numpy as np
                from repro.core.source import QuantumCombSource
                from repro.utils import RandomStream
                """
            },
            [LazyImportRule()],
        )
        assert len(findings) == 3
        assert {f.rule for f in findings} == {"IMP001"}

    def test_function_level_and_type_checking_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/cli.py": """
                from typing import TYPE_CHECKING
                from repro.errors import ReproError
                if TYPE_CHECKING:
                    import numpy as np
                def handler():
                    import numpy
                    from repro.core.source import QuantumCombSource
                    return numpy, QuantumCombSource
                """
            },
            [LazyImportRule()],
        )
        assert findings == []

    def test_modules_outside_closure_unconstrained(self, run_rules):
        findings = run_rules(
            {
                "repro/core/source.py": """
                import numpy as np
                """
            },
            [LazyImportRule()],
        )
        assert findings == []

    def test_light_closure_is_numpy_free_at_runtime(self):
        """The pinned LIGHT_MODULES closure must import without numpy.

        ``repro.__main__`` is skipped: importing it runs the CLI, not
        because it is heavy.
        """
        # The journal primitive under the queue and obs journals.
        assert {"repro.utils.io", "repro.utils.journal"} <= LIGHT_MODULES
        modules = sorted(LIGHT_MODULES - {"repro.__main__"})
        code = (
            "import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "assert 'numpy' not in sys.modules, 'numpy leaked into the closure'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=dict(os.environ),
            timeout=120,
        )

    def test_driver_stack_and_samplers_never_load_scipy_stats(self):
        """The driver stack, every discrete sampler and the Poisson
        interval run without importing scipy.stats (rule IMP002)."""
        code = (
            "import sys\n"
            "import repro.experiments.registry, repro.runtime.engine\n"
            "from repro.utils.rng import RandomStream\n"
            "from repro.utils.stats import poisson_interval\n"
            "stream = RandomStream(5, 'imp002')\n"
            "stream.poisson(3.0, size=10)\n"
            "stream.binomial(12, 0.4, size=10)\n"
            "stream.multinomial(50, [0.2, 0.3, 0.5])\n"
            "poisson_interval(17)\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=dict(os.environ),
            timeout=120,
        )


class TestLockRule:
    def test_unlocked_public_mutation_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/service/store.py": """
                import threading
                class Store:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._jobs = {}
                    def put(self, key, value):
                        with self._lock:
                            self._jobs[key] = value
                    def racy(self, key):
                        self._jobs.pop(key, None)
                """
            },
            [LockDisciplineRule()],
        )
        assert len(findings) == 1
        assert "racy" in findings[0].message

    def test_private_helpers_and_unguarded_attrs_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/service/store.py": """
                import threading
                class Store:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._jobs = {}
                        self.stats = {}
                    def put(self, key, value):
                        with self._lock:
                            self._persist(key, value)
                    def _persist(self, key, value):
                        self._jobs[key] = value
                    def bump(self, key):
                        self.stats[key] = 1
                """
            },
            [LockDisciplineRule()],
        )
        assert findings == []

    def test_out_of_scope_module_not_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                import threading
                class E:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._state = {}
                    def locked(self):
                        with self._lock:
                            self._state["a"] = 1
                    def unlocked(self):
                        self._state["b"] = 2
                """
            },
            [LockDisciplineRule()],
        )
        assert findings == []


class TestExceptionRule:
    def test_bare_and_swallowing_handlers_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                def f():
                    try:
                        pass
                    except:
                        pass
                    try:
                        pass
                    except Exception:
                        pass
                """
            },
            [ExceptionHygieneRule()],
        )
        assert len(findings) == 2

    def test_narrow_or_handled_broad_catches_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/mod.py": """
                def f(log):
                    try:
                        pass
                    except OSError:
                        pass
                    try:
                        pass
                    except Exception as error:
                        log(error)
                        raise
                """
            },
            [ExceptionHygieneRule()],
        )
        assert findings == []


def _manifest_for(source, symbols, cache_schema=2):
    return {
        "cache_schema": cache_schema,
        "modules": {
            "repro/runtime/cache.py": {
                "symbols": list(symbols),
                "digest": symbol_digest(textwrap.dedent(source), symbols),
            }
        },
    }


_CACHE_V2 = """
CACHE_SCHEMA = 2
def fingerprint(x):
    return x
"""


class TestCacheSchemaRule:
    def test_pinned_module_with_matching_digest_clean(self, run_rules):
        manifest = _manifest_for(_CACHE_V2, ["fingerprint"])
        findings = run_rules(
            {"repro/runtime/cache.py": _CACHE_V2},
            [CacheSchemaRule(manifest=manifest)],
        )
        assert findings == []

    def test_drift_without_bump_demands_schema_bump(self, run_rules):
        manifest = _manifest_for(_CACHE_V2, ["fingerprint"])
        drifted = _CACHE_V2.replace("return x", "return x + 1")
        findings = run_rules(
            {"repro/runtime/cache.py": drifted},
            [CacheSchemaRule(manifest=manifest)],
        )
        assert len(findings) == 1
        assert "bump CACHE_SCHEMA" in findings[0].message

    def test_drift_after_bump_demands_repin(self, run_rules):
        manifest = _manifest_for(_CACHE_V2, ["fingerprint"])
        bumped = _CACHE_V2.replace(
            "CACHE_SCHEMA = 2", "CACHE_SCHEMA = 3"
        ).replace("return x", "return (x, 3)")
        findings = run_rules(
            {"repro/runtime/cache.py": bumped},
            [CacheSchemaRule(manifest=manifest)],
        )
        assert len(findings) == 1
        assert "--update-digests" in findings[0].message
        assert "stale" in findings[0].message

    def test_comment_and_docstring_edits_do_not_drift(self, run_rules):
        manifest = _manifest_for(_CACHE_V2, ["fingerprint"])
        cosmetic = _CACHE_V2.replace(
            "def fingerprint(x):",
            'def fingerprint(x):\n    """Documented now."""  # and commented',
        )
        findings = run_rules(
            {"repro/runtime/cache.py": cosmetic},
            [CacheSchemaRule(manifest=manifest)],
        )
        assert findings == []

    def test_undeclared_importer_flagged(self, run_rules):
        manifest = {"cache_schema": 2, "modules": {}}
        findings = run_rules(
            {
                "repro/service/jobs.py": """
                from repro.runtime.cache import fingerprint
                """
            },
            [CacheSchemaRule(manifest=manifest)],
        )
        assert len(findings) == 1
        assert "not declared" in findings[0].message

    def test_declared_importer_clean(self, run_rules):
        importer = "from repro.runtime.cache import ResultCache\n"
        manifest = {"cache_schema": 2, "modules": {}}
        findings = run_rules(
            {"repro/service/jobs.py": importer},
            [CacheSchemaRule(manifest=manifest)],
        )
        assert findings == []


class TestObsNamesRule:
    def test_string_literal_name_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                from repro import obs

                def run():
                    with obs.span("engine.run"):
                        obs.count("cache.hit")
                """
            },
            [ObsNamesRule()],
        )
        assert len(findings) == 2
        assert all(f.rule == "OBS001" for f in findings)
        assert "repro.obs.names" in findings[0].message

    def test_unknown_registry_constant_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                from repro import obs
                from repro.obs import names

                def run():
                    obs.count(names.METRIC_CACHE_HITZ)
                """
            },
            [ObsNamesRule()],
        )
        assert len(findings) == 1
        assert "METRIC_CACHE_HITZ" in findings[0].message

    def test_registry_constants_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                from repro import obs
                from repro.obs import names

                def run(ctx):
                    with obs.span(names.SPAN_ENGINE_RUN):
                        obs.count(names.METRIC_CACHE_HIT)
                    with obs.worker_scope(ctx, names.SPAN_POOL_EXECUTE):
                        pass
                """
            },
            [ObsNamesRule()],
        )
        assert findings == []

    def test_worker_scope_name_is_second_argument(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                from repro import obs

                def run(ctx):
                    with obs.worker_scope(ctx, "pool.execute"):
                        pass
                """
            },
            [ObsNamesRule()],
        )
        assert len(findings) == 1

    def test_obs_package_itself_exempt(self, run_rules):
        findings = run_rules(
            {
                "repro/obs/__init__.py": """
                def span(name):
                    return name

                def demo():
                    return span("anything.goes")
                """
            },
            [ObsNamesRule()],
        )
        assert findings == []

    def test_unrelated_attribute_calls_ignored(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/engine.py": """
                class Tracer:
                    def span(self, name):
                        return name

                def run(tracer):
                    return tracer.span("not.a.registry.name")
                """
            },
            [ObsNamesRule()],
        )
        assert findings == []


class TestBusTopicsRule:
    def test_string_literal_topic_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/service/queue.py": """
                from repro import obs

                def announce(snapshot):
                    obs.publish_init("queue-state", snapshot)
                    obs.publish_mod(topic="queue-state", mod={})
                """
            },
            [BusTopicsRule()],
        )
        assert len(findings) == 2
        assert all(f.rule == "OBS002" for f in findings)
        assert "TOPIC_" in findings[0].message

    def test_unknown_topic_constant_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/service/queue.py": """
                from repro import obs
                from repro.obs import names

                def announce(snapshot):
                    obs.publish_init(names.TOPIC_QUEU, snapshot)
                """
            },
            [BusTopicsRule()],
        )
        assert len(findings) == 1
        assert "TOPIC_QUEU" in findings[0].message

    def test_constants_builders_and_variables_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/service/queue.py": """
                from repro import obs
                from repro.obs import names

                def announce(snapshot, key, topic):
                    obs.publish_init(names.TOPIC_QUEUE, snapshot)
                    obs.publish_init(names.sweep_topic(key), snapshot)
                    obs.publish_mod(topic, {"op": "set"})
                """
            },
            [BusTopicsRule()],
        )
        assert findings == []

    def test_obs_package_and_outside_modules_exempt(self, run_rules):
        findings = run_rules(
            {
                "repro/obs/bus.py": """
                def publish_init(topic, snapshot):
                    return publish_init("anything", snapshot)
                """,
                "tools/probe.py": """
                from repro import obs

                def poke():
                    obs.publish_mod("datasets.sweep.x", {})
                """,
            },
            [BusTopicsRule()],
        )
        assert findings == []


class TestFleetIoRule:
    def test_file_io_in_runner_side_code_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/fleet/runner.py": """
                import json
                import pathlib

                def stash(record, path: pathlib.Path):
                    with open("/tmp/results.json", "w") as handle:
                        json.dump(record, handle)
                    path.write_text("{}")
                    return path.read_text()
                """
            },
            [FleetIoRule()],
        )
        assert len(findings) == 3
        assert {f.rule for f in findings} == {"FLT001"}
        assert "runner.lookup / runner.ingest" in findings[0].message

    def test_durability_helpers_and_master_imports_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/fleet/runner.py": """
                from repro.utils.io import atomic_write_text

                def persist(path, payload):
                    from repro.runtime.cache import ResultCache

                    atomic_write_text(path, payload)
                    return ResultCache
                """
            },
            [FleetIoRule()],
        )
        # Two forbidden imports (top-level + deferred) and one helper call.
        assert len(findings) == 3
        assert {f.rule for f in findings} == {"FLT001"}
        assert any("repro.runtime.cache" in f.message for f in findings)

    def test_coordinator_and_outside_modules_exempt(self, run_rules):
        findings = run_rules(
            {
                "repro/fleet/coordinator.py": """
                from repro.runtime.cache import ResultCache
                from repro.utils.io import append_line

                def persist(path, line):
                    append_line(path, line)
                    return open(path).read()
                """,
                "repro/service/store.py": """
                from repro.utils.io import append_line

                def journal(path, line):
                    append_line(path, line)
                """,
            },
            [FleetIoRule()],
        )
        assert findings == []

    def test_rpc_only_runner_code_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/fleet/runner.py": """
                from repro.fleet.client import RunnerClient

                def execute(client, runner_id, job_id, payload):
                    hit = client.lookup(runner_id, job_id, payload)
                    if hit.get("hit"):
                        return client.complete(runner_id, job_id)
                    return client.ingest(runner_id, job_id, payload)
                """
            },
            [FleetIoRule()],
        )
        assert findings == []


class TestProcessPoolRule:
    def test_pool_construction_outside_pool_module_flagged(self, run_rules):
        findings = run_rules(
            {
                "repro/service/scheduler.py": """
                import concurrent.futures
                import multiprocessing as mp
                from multiprocessing import Pool

                def pools():
                    return (
                        concurrent.futures.ProcessPoolExecutor(2),
                        mp.Pool(2),
                        Pool(2),
                    )
                """
            },
            [ProcessPoolRule()],
        )
        assert len(findings) == 3
        assert {f.rule for f in findings} == {"POL001"}
        assert "repro.runtime.pool.submit" in findings[0].message

    def test_pool_module_and_shared_pool_callers_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/runtime/pool.py": """
                from concurrent.futures import ProcessPoolExecutor

                def start(workers):
                    return ProcessPoolExecutor(max_workers=workers)
                """,
                "repro/fleet/runner.py": """
                from concurrent.futures import ThreadPoolExecutor

                from repro.runtime import pool

                def compute(spec, workers):
                    with ThreadPoolExecutor(1) as threads:
                        threads.submit(print)
                    return pool.submit(spec, workers).result()
                """,
            },
            [ProcessPoolRule()],
        )
        assert findings == []


class TestStatsPackageRule:
    def test_scipy_stats_imports_flagged_at_any_level(self, run_rules):
        findings = run_rules(
            {
                "repro/utils/stats.py": """
                import scipy.stats
                from scipy import optimize, stats

                def quantile(q, mu):
                    from scipy.stats import poisson
                    import scipy.stats._discrete_distns as distns
                    return poisson.ppf(q, mu), distns
                """
            },
            [StatsPackageRule()],
        )
        assert [f.line for f in findings] == [2, 3, 6, 7]
        assert {f.rule for f in findings} == {"IMP002"}
        assert "scipy.special" in findings[0].message

    def test_scipy_special_and_code_outside_repro_clean(self, run_rules):
        findings = run_rules(
            {
                "repro/utils/rng.py": """
                import scipy
                import scipy.special
                from scipy import optimize, special
                from scipy.special import pdtrik
                from scipy.special._ufuncs import _binom_ppf
                from .stats import poisson_interval
                """,
                "tests/test_reference.py": """
                from scipy import stats
                import scipy.stats
                """,
            },
            [StatsPackageRule()],
        )
        assert findings == []


#: A minimal package: the CLI plus the registry modules it roots.
_REACH_PACKAGE = {
    "src/repro/__init__.py": "",
    "src/repro/cli.py": "from repro.errors import ReproError\n",
    "src/repro/errors.py": "class ReproError(Exception):\n    pass\n",
}


class TestReachabilityRule:
    def _unreached(self, make_tree, files, path="src"):
        root = make_tree({**_REACH_PACKAGE, **files})
        findings = Checker([ReachabilityRule()]).run([root / path]).findings
        assert {f.rule for f in findings} <= {"REACH001"}
        return sorted(f.module for f in findings)

    def test_orphan_module_flagged(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {
                "src/repro/orphan.py": "import numpy as np\n",
                "src/repro/experiments/__init__.py": "",
                "src/repro/experiments/registry.py": "import repro.physics\n",
                "src/repro/physics.py": "",
            },
        )
        assert unreached == ["repro/orphan.py"]

    def test_function_level_import_and_module_string_reach(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {
                "src/repro/cli.py": """
                def run():
                    from repro.engine import RunEngine
                    return RunEngine
                """,
                "src/repro/engine.py": "RunEngine = object\n",
                "src/repro/__init__.py": """
                _LAZY_EXPORTS = {"QuantumCombSource": "repro.core.source"}
                """,
                "src/repro/core/__init__.py": "",
                "src/repro/core/source.py": "from .device import ring\n",
                "src/repro/core/device.py": "ring = None\n",
            },
        )
        assert unreached == ["repro/errors.py"]

    def test_type_checking_import_does_not_reach(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {
                "src/repro/cli.py": """
                from typing import TYPE_CHECKING
                if TYPE_CHECKING:
                    from repro.errors import ReproError
                """,
            },
        )
        assert unreached == ["repro/errors.py"]

    def test_example_and_ablation_imports_are_roots(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {
                "src/repro/jsa.py": "",
                "src/repro/device.py": "",
                "src/repro/only_bench.py": "",
                "examples/design.py": "from repro import device\n",
                "benchmarks/bench_ablation_purity.py": """
                def bench():
                    from repro.jsa import purity
                """,
                "benchmarks/bench_core.py": "import repro.only_bench\n",
            },
        )
        assert unreached == ["repro/only_bench.py"]

    def test_module_imported_only_by_tests_flagged(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {
                "src/repro/montecarlo.py": "",
                "tests/test_montecarlo.py": "from repro import montecarlo\n",
            },
            path=".",
        )
        assert unreached == ["repro/montecarlo.py"]

    def test_silent_without_cli_in_checked_set(self, make_tree):
        unreached = self._unreached(
            make_tree,
            {"src/repro/runtime/sneaky.py": "x = 1\n"},
            path="src/repro/runtime",
        )
        assert unreached == []
