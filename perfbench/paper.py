"""One fresh process: import the driver stack, then run E1-E9 at full statistics.

Run by ``run.py``; writes one JSON document to ``--out``::

    python3 perfbench/paper.py --seed 1 --root DIR --out pass.json [--trace]

``--import-only`` stops after timing the import (the set-up samples).
With ``--trace`` the tracer's wrappers are installed after the import,
and the per-layer self times of the pass are written as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time

IMPORT_START = time.perf_counter()
import repro.experiments.registry  # noqa: E402
import repro.runtime.engine  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    document: dict[str, object] = {"import_s": IMPORT_S}
    if not args.import_only:
        document.update(run_pass(args.seed, args.root, args.trace))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def run_pass(seed: int, root: str, trace: bool) -> dict[str, object]:
    """Run the nine drivers serially through ``RunEngine.run`` on ``root``."""
    from repro.experiments.report import summarise_result
    from repro.runtime import records
    from repro.runtime.engine import RunEngine

    import stats

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_storage(tracer)
        tracing.install_physics(tracer)
        start_snapshot = tracer.snapshot()
    engine = RunEngine(root=root)
    drivers: dict[str, dict[str, object]] = {}
    results = {}
    pass_start = time.perf_counter()
    cpu_start = stats.tree_cpu_s(os.getpid())
    for key in sorted(repro.experiments.registry.EXPERIMENTS):
        start = time.perf_counter()
        try:
            results[key] = engine.run(key, seed=seed, quick=False).result
        except Exception as error:  # noqa: BLE001 - a failed driver is a result
            drivers[key] = {"error": f"{type(error).__name__}: {error}"}
        else:
            drivers[key] = {"wall_s": time.perf_counter() - start}
    pass_s = time.perf_counter() - pass_start
    document: dict[str, object] = {
        "pass_s": pass_s,
        "pass_cpu_s": stats.tree_cpu_s(os.getpid()) - cpu_start,
    }
    if tracer is not None:
        document["trace"] = tracing.diff(start_snapshot, tracer.snapshot())
    for key, result in results.items():
        comparisons = summarise_result(key, result)
        record = json.dumps(records.to_record(result), sort_keys=True)
        drivers[key]["within_shape"] = all(c.within_shape for c in comparisons)
        drivers[key]["claims"] = [
            [c.claim, c.measured_value, c.within_shape] for c in comparisons
        ]
        drivers[key]["record_sha256"] = hashlib.sha256(record.encode()).hexdigest()
    document["drivers"] = drivers
    document["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return document


if __name__ == "__main__":
    main()
