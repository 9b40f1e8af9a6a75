"""Content-addressed memoisation of experiment results.

A cache entry is keyed by the SHA-256 fingerprint of the run
configuration — experiment id, seed, statistics mode, every parameter
override, plus the package version — so within one release a hit is
the result the same run would recompute.  Driver changes that alter
results must ship with a version (or ``CACHE_SCHEMA``) bump, otherwise
stale entries survive; ``repro run --no-cache`` forces recomputation.
Entries are the JSON records of :mod:`repro.runtime.records`, one file
per fingerprint, written atomically so concurrent writers can never
corrupt an entry.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections.abc import Mapping

from repro import obs
from repro.experiments.base import ExperimentResult
from repro.obs import names as obs_names
from repro.runtime import records
from repro.runtime.records import jsonify

#: Bump when the fingerprint payload or entry layout changes, or when a
#: driver change alters results for an unchanged spec.  Schema 2: the
#: fringe-scan bootstrap error is seeded from the experiment RNG instead
#: of a hard-coded generator, changing E7/E8 records for old seeds.
#: Schema 3: RandomStream became counter-based (Philox keys, one
#: inverse-CDF uniform per draw position), so every sampled value —
#: and therefore every record — differs from schema 2 for the same
#: seed; old entries must not be served for new runs.  Schema 4: MLE
#: tomography sums its probabilities and R operator over a stacked
#: projector array, so E9 records move in the last bits.
CACHE_SCHEMA = 4


def fingerprint(
    experiment_id: str,
    seed: int,
    quick: bool,
    params: Mapping[str, object] | None = None,
) -> str:
    """The content-address of one run configuration (hex SHA-256)."""
    import repro

    payload = {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "experiment": experiment_id.upper(),
        "seed": int(seed),
        "quick": bool(quick),
        "params": {
            str(k): _canonical_value(v) for k, v in (params or {}).items()
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_value(value: object) -> object:
    """Canonicalise one override for fingerprinting.

    Integral and float forms of the same number (``10`` from
    ``--set pump_mw=10``, ``10.0`` from a scan point) must address the
    same cache entry, so non-bool numbers fold to float.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return jsonify(value)


class ResultCache:
    """A directory of fingerprint-addressed result records."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> pathlib.Path:
        """The entry file for a fingerprint."""
        return self.root / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for a fingerprint (stat only).

        A *probe*, not a read: it does not parse, validate or count the
        entry towards hit/miss statistics.  The fleet coordinator calls
        this under the store lock to classify pending jobs as
        serve-inline vs. lease-remote, so it must stay O(one stat).
        """
        return self.path_for(key).exists()

    def read_entry(self, key: str) -> dict[str, object] | None:
        """The raw JSON entry for a fingerprint, or None.

        Numpy-free access to a cached record's scalar ``metrics`` —
        the master serves cache-hit jobs from
        ``entry["record"]["metrics"]`` without materialising arrays.
        Torn or foreign files read as None (the caller falls back to a
        lease and the runner's miss path recomputes).
        """
        try:
            entry = json.loads(
                self.path_for(key).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def get(self, key: str) -> ExperimentResult | None:
        """The cached result for a fingerprint, or None on a miss.

        Unreadable or truncated entries count as misses — the caller
        recomputes and overwrites them.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            result = records.from_record(entry["record"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            obs.count(obs_names.METRIC_CACHE_MISS)
            return None
        self.hits += 1
        obs.count(obs_names.METRIC_CACHE_HIT)
        return result

    def put(
        self,
        key: str,
        result: ExperimentResult,
        duration_s: float | None = None,
    ) -> pathlib.Path:
        """Store a result under a fingerprint (atomic rename)."""
        from repro.utils.io import atomic_write_text

        entry = {
            "schema": CACHE_SCHEMA,
            "fingerprint": key,
            "duration_s": duration_s,
            "record": records.to_record(result),
        }
        return atomic_write_text(
            self.path_for(key), json.dumps(entry, sort_keys=True)
        )

    def clear(self, keep: int = 0) -> tuple[int, int]:
        """Garbage-collect entries; returns ``(removed, bytes_freed)``.

        ``keep`` retains the newest N entries by mtime (0 = delete
        everything) and must be >= 0 — the cache-GC validation contract
        shared with ``repro archive --prune``.
        """
        from repro.errors import ConfigurationError

        if keep < 0:
            raise ConfigurationError(
                f"cache clear needs --keep N >= 0, got {keep}"
            )
        removed = 0
        freed = 0
        if self.root.exists():
            entries = sorted(
                self.root.glob("*.json"),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
            for path in entries[keep:]:
                try:
                    freed += path.stat().st_size
                except OSError:
                    pass
                path.unlink(missing_ok=True)
                removed += 1
        return removed, freed

    def stats(self) -> dict[str, object]:
        """Entry count, on-disk bytes, schema and this session's hit rate."""
        entries = 0
        size = 0
        if self.root.exists():
            for path in self.root.glob("*.json"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA,
            "entries": entries,
            "bytes": size,
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def __len__(self) -> int:
        """Number of stored entries."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
