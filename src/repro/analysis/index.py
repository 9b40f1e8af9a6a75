"""The archive index: a queryable catalog of every archived run.

PR 1–3 made the run archive write-only — finding "all E5 runs between
2 and 8 mW" meant globbing ``runs/*/manifest.json`` and parsing every
file.  The index turns the archive into the system's query surface: an
incrementally maintained, crash-safe catalog holding one compact entry
per run (experiment id, seed, params, status, scalar metrics), so
``O(10k)`` runs resolve from two JSON files without ever touching a
result record or npz archive.

Layout under the engine root::

    <root>/index/index.json     compacted base catalog (atomic writes)
    <root>/index/journal.jsonl  upsert/remove op log written by the run
                                engine at archive time (a rotating
                                :class:`~repro.utils.journal.Journal`)

Maintenance model (mirrors the service job store): the engine appends
one fsynced op-log line per archived run — O(1), no read-modify-write
— and :meth:`ArchiveIndex.refresh` folds the op log + a stat-based scan
of the runs directory into a fresh compacted base.  Killing any process at
any instant leaves a readable index; at worst the next refresh re-scans
a handful of run directories.

Status taxonomy: ``ok`` (result record readable), ``failed`` (the run
archived a failure manifest), ``corrupt`` (the manifest claims success
but the result record or datasets are unreadable — see
:class:`repro.errors.ArchiveError`).

Pure stdlib on purpose: building and querying the index must work on
the CLI's no-numpy fast path.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
import zipfile
from collections.abc import Iterable, Mapping

from repro.errors import AnalysisError
from repro.runtime.engine import MANIFEST_FILE, RESULT_FILE, default_root
from repro.utils import journal
from repro.utils.io import atomic_write_text

#: Directory and file names inside the engine root.
INDEX_DIR = "index"
INDEX_FILE = "index.json"
JOURNAL_FILE = "journal.jsonl"

#: Bump when the entry layout changes; readers rebuild older schemas.
INDEX_SCHEMA = 1

#: Op-log lines at which it rotates.  An op that rotates out for good is
#: not lost: :meth:`ArchiveIndex.refresh` rescans unindexed run dirs.
JOURNAL_MAX_LINES = 100_000

#: Entry statuses.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_CORRUPT = "corrupt"


def index_dir(root: str | pathlib.Path | None = None) -> pathlib.Path:
    """The index directory under an engine root."""
    base = pathlib.Path(root) if root is not None else default_root()
    return base / INDEX_DIR


@functools.lru_cache(maxsize=16)
def _op_log(path: pathlib.Path) -> journal.Journal:
    """This process's writer of one op log (opened once: it reads it)."""
    return journal.Journal(path, JOURNAL_MAX_LINES)


def journal_append(
    root: str | pathlib.Path, entry: Mapping[str, object]
) -> None:
    """Append one upsert op for a freshly archived run (engine hook).

    O(1) and pure stdlib so the run engine can call it on every archive
    without a read-modify-write of the whole catalog.
    """
    _op_log(index_dir(root) / JOURNAL_FILE).append(
        [{"op": "upsert", "entry": dict(entry)}]
    )


def journal_remove(root: str | pathlib.Path, run_id: str) -> None:
    """Append one remove op for a pruned run (engine prune hook)."""
    _op_log(index_dir(root) / JOURNAL_FILE).append(
        [{"op": "remove", "run_id": run_id}]
    )


def payload_signature(run_dir: pathlib.Path) -> list[list[object]]:
    """Stat-level fingerprint of a run's payload files.

    ``[[name, mtime_ns, size], ...]`` for result/datasets/arrays; a
    missing file contributes ``[name, None, None]``.  Cheap (three
    stats, no reads) and stored in each entry so :meth:`refresh` can
    detect payload damage — e.g. a truncated npz — without re-reading
    healthy runs.
    """
    from repro.runtime.datasets import ARRAYS_FILE, DATASETS_FILE

    signature: list[list[object]] = []
    for name in (RESULT_FILE, DATASETS_FILE, ARRAYS_FILE):
        try:
            stat = (run_dir / name).stat()
            signature.append([name, stat.st_mtime_ns, stat.st_size])
        except OSError:
            signature.append([name, None, None])
    return signature


def entry_from_outcome(
    spec,
    metrics: Mapping[str, object],
    status: str,
    duration_s: float,
    cached: bool,
    error_type: str | None = None,
) -> dict[str, object]:
    """Build an index entry from an in-process run (no disk reads).

    ``spec`` is a :class:`repro.runtime.engine.RunSpec`; metrics are the
    result's scalar metrics (already JSON-native floats).
    """
    from repro.runtime.records import jsonify

    entry: dict[str, object] = {
        "run_id": spec.run_id(),
        "fingerprint": spec.fingerprint(),
        "experiment_id": spec.experiment_id,
        "seed": spec.seed,
        "quick": spec.quick,
        "params": {k: jsonify(v) for k, v in spec.params},
        "status": status,
        "created_unix": time.time(),
        "duration_s": float(duration_s),
        "from_cache": bool(cached),
        "metrics": {str(k): jsonify(v) for k, v in dict(metrics).items()},
    }
    if error_type is not None:
        entry["error_type"] = error_type
    return entry


class ArchiveIndex:
    """The queryable run catalog of one engine root.

    Typical use::

        index = ArchiveIndex(root)
        index.refresh()                       # fold journal + disk scan
        runs = index.query(experiment="E5", where={"pump_mw": (2, 8)})
    """

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.runs_dir = self.root / "runs"
        self.dir = self.root / INDEX_DIR
        self.index_path = self.dir / INDEX_FILE
        self.journal_path = self.dir / JOURNAL_FILE
        self._entries: dict[str, dict[str, object]] = {}
        self._loaded = False
        self._journal_ops = 0
        self._base_valid = False

    # ------------------------------------------------------------------
    # Loading and maintenance
    # ------------------------------------------------------------------
    def load(self) -> "ArchiveIndex":
        """Read base catalog + journal into memory (no disk scan)."""
        self._entries = {}
        self._journal_ops = 0
        self._base_valid = False
        try:
            base = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            base = {}
        if base.get("schema") == INDEX_SCHEMA:
            self._base_valid = True
            entries = base.get("entries", {})
            if isinstance(entries, dict):
                for run_id, entry in entries.items():
                    if isinstance(entry, dict):
                        self._entries[str(run_id)] = entry
        for op in journal.read(self.journal_path)[0]:
            if op.get("op") == "upsert" and isinstance(op.get("entry"), dict):
                entry = op["entry"]
                run_id = str(entry.get("run_id", ""))
                if run_id:
                    self._entries[run_id] = entry
                    self._journal_ops += 1
            elif op.get("op") == "remove":
                self._entries.pop(str(op.get("run_id", "")), None)
                self._journal_ops += 1
        self._loaded = True
        return self

    def refresh(self) -> "ArchiveIndex":
        """Fold the journal and a stat-scan of ``runs/`` into a new base.

        Incremental: run directories already indexed with an unchanged
        manifest ``mtime_ns`` are not re-read; vanished directories are
        dropped; new or changed ones are (re-)scanned.  The merged
        catalog is compacted to ``index.json`` and the journal
        truncated.  A run archived by a live engine between the merge
        and the truncation is picked up by the next refresh's disk scan
        — nothing is permanently lost.

        A clean refresh — valid base, empty journal, no disk changes —
        writes nothing, so read-only consumers (``repro query``) do not
        pay an O(archive) rewrite per invocation and keep working on a
        read-only root.
        """
        self.load()
        changed = self._journal_ops > 0 or not self._base_valid
        on_disk: dict[str, pathlib.Path] = {}
        if self.runs_dir.exists():
            for run_dir in self.runs_dir.iterdir():
                if (run_dir / MANIFEST_FILE).exists():
                    on_disk[run_dir.name] = run_dir
        for run_id in list(self._entries):
            if run_id not in on_disk:
                del self._entries[run_id]
                changed = True
        for run_id, run_dir in on_disk.items():
            known = self._entries.get(run_id)
            try:
                mtime_ns = (run_dir / MANIFEST_FILE).stat().st_mtime_ns
            except OSError:
                continue  # pruned mid-scan
            if (
                known is not None
                and known.get("manifest_mtime_ns") == mtime_ns
                and known.get("payload_sig") == payload_signature(run_dir)
            ):
                continue
            entry = scan_run_dir(run_dir)
            if entry is not None:
                self._entries[run_id] = entry
                changed = True
        if changed:
            self._compact()
        return self

    def rebuild(self) -> "ArchiveIndex":
        """Full rescan of every run directory, ignoring base + journal."""
        self._entries = {}
        self._loaded = True
        if self.runs_dir.exists():
            for run_dir in sorted(self.runs_dir.iterdir()):
                if not (run_dir / MANIFEST_FILE).exists():
                    continue
                entry = scan_run_dir(run_dir)
                if entry is not None:
                    self._entries[run_dir.name] = entry
        self._compact()
        return self

    def _compact(self) -> None:
        """Atomically write the base catalog and truncate the journal."""
        atomic_write_text(
            self.index_path,
            json.dumps(
                {"schema": INDEX_SCHEMA, "entries": self._entries},
                indent=1,
                sort_keys=True,
            ),
        )
        if self.journal_path.exists():
            atomic_write_text(self.journal_path, "")
        journal.rotated_path(self.journal_path).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of indexed runs."""
        self._ensure_loaded()
        return len(self._entries)

    def entries(self) -> list[dict[str, object]]:
        """Every entry, newest first."""
        self._ensure_loaded()
        return sorted(
            self._entries.values(),
            key=lambda e: e.get("created_unix", 0.0),
            reverse=True,
        )

    def get(self, run_id: str) -> dict[str, object] | None:
        """One entry by run id, or None."""
        self._ensure_loaded()
        return self._entries.get(run_id)

    def query(
        self,
        experiment: str | None = None,
        seed: int | None = None,
        quick: bool | None = None,
        status: str | None = None,
        where: Mapping[str, object] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, object]]:
        """Filter the catalog; returns matching entries, newest first.

        ``where`` maps parameter names to either an exact value or a
        ``(lo, hi)`` inclusive range; runs lacking the parameter don't
        match.  ``status=None`` matches every status.
        """
        matches = []
        for entry in self.entries():
            if experiment is not None and (
                entry.get("experiment_id") != experiment.upper()
            ):
                continue
            if seed is not None and entry.get("seed") != seed:
                continue
            if quick is not None and bool(entry.get("quick")) != quick:
                continue
            if status is not None and entry.get("status") != status:
                continue
            if where and not _params_match(entry.get("params", {}), where):
                continue
            matches.append(entry)
            if limit is not None and len(matches) >= limit:
                break
        return matches

    def latest(
        self, experiment: str, status: str = STATUS_OK, **kwargs
    ) -> dict[str, object] | None:
        """The newest entry of one experiment (default: status ok)."""
        found = self.query(
            experiment=experiment, status=status, limit=1, **kwargs
        )
        return found[0] if found else None

    def latest_per_experiment(
        self, status: str = STATUS_OK
    ) -> dict[str, dict[str, object]]:
        """experiment id → its newest entry with the given status."""
        latest: dict[str, dict[str, object]] = {}
        for entry in self.entries():  # newest first: first one wins
            if status is not None and entry.get("status") != status:
                continue
            key = str(entry.get("experiment_id", "?"))
            latest.setdefault(key, entry)
        return latest

    def sweep_groups(
        self, experiment: str, status: str = STATUS_OK
    ) -> list[dict[str, object]]:
        """Group one experiment's runs into sweep families.

        Runs sharing (seed, quick, parameter-name set) form one group;
        within a group the *axes* are the parameters taking more than
        one distinct value.  Returns one document per group::

            {"seed": ..., "quick": ..., "axes": ["pump_mw"],
             "fixed": {"duration_s": 5.0}, "entries": [...]}
        """
        families: dict[tuple, list[dict[str, object]]] = {}
        for entry in self.query(experiment=experiment, status=status):
            params = entry.get("params", {})
            key = (
                entry.get("seed"),
                bool(entry.get("quick")),
                tuple(sorted(params)),
            )
            families.setdefault(key, []).append(entry)
        groups = []
        for (seed, quick, names), members in sorted(
            families.items(), key=lambda kv: str(kv[0])
        ):
            values: dict[str, set] = {name: set() for name in names}
            for entry in members:
                for name in names:
                    values[name].add(_hashable(entry["params"].get(name)))
            axes = sorted(n for n, seen in values.items() if len(seen) > 1)
            fixed = {
                n: members[0]["params"].get(n)
                for n in names
                if n not in axes
            }
            members.sort(
                key=lambda e: tuple(
                    _sort_token(e.get("params", {}).get(a)) for a in axes
                )
            )
            groups.append(
                {
                    "experiment_id": experiment.upper(),
                    "seed": seed,
                    "quick": quick,
                    "axes": axes,
                    "fixed": fixed,
                    "entries": members,
                }
            )
        return groups

    def stats(self) -> dict[str, object]:
        """Catalog-wide counts for ``repro index``."""
        by_experiment: dict[str, int] = {}
        by_status: dict[str, int] = {}
        for entry in self.entries():
            key = str(entry.get("experiment_id", "?"))
            by_experiment[key] = by_experiment.get(key, 0) + 1
            status = str(entry.get("status", "?"))
            by_status[status] = by_status.get(status, 0) + 1
        return {
            "root": str(self.root),
            "runs": len(self),
            "by_experiment": by_experiment,
            "by_status": by_status,
        }

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.load()


def scan_run_dir(run_dir: pathlib.Path) -> dict[str, object] | None:
    """Build one index entry by reading a run directory.

    Returns None when the manifest itself is unreadable (nothing to
    index).  A manifest claiming success whose result record or
    datasets are missing/corrupt yields a ``corrupt`` entry — the scan
    never raises on damaged archives.
    """
    manifest_path = run_dir / MANIFEST_FILE
    try:
        stat = manifest_path.stat()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict):
        return None
    entry: dict[str, object] = {
        "run_id": str(manifest.get("run_id", run_dir.name)),
        "fingerprint": manifest.get("fingerprint", ""),
        "experiment_id": str(manifest.get("experiment_id", "?")),
        "seed": manifest.get("seed", 0),
        "quick": bool(manifest.get("quick", False)),
        "params": manifest.get("params", {}) or {},
        "status": STATUS_FAILED,
        "created_unix": manifest.get("created_unix", 0.0),
        "duration_s": manifest.get("duration_s", 0.0),
        "from_cache": bool(manifest.get("from_cache", False)),
        "metrics": {},
        "manifest_mtime_ns": stat.st_mtime_ns,
        "payload_sig": payload_signature(run_dir),
    }
    if manifest.get("status") == "failed":
        error = manifest.get("error") or {}
        if isinstance(error, dict):
            entry["error_type"] = error.get("type", "?")
        return entry
    problem = _verify_run_dir(run_dir, entry)
    if problem is not None:
        entry["status"] = STATUS_CORRUPT
        entry["corrupt_reason"] = problem
    else:
        entry["status"] = STATUS_OK
    return entry


def _verify_run_dir(
    run_dir: pathlib.Path, entry: dict[str, object]
) -> str | None:
    """Check an ok-status run's payload files; returns a problem or None.

    Fills ``entry["metrics"]`` from the result record on success.  Kept
    numpy-free: the npz is validated as a zip container, not parsed.
    """
    from repro.runtime.datasets import ARRAYS_FILE, ARRAYS_META_KEY, DATASETS_FILE

    try:
        record = json.loads(
            (run_dir / RESULT_FILE).read_text(encoding="utf-8")
        )
        metrics = record["metrics"]
        if not isinstance(metrics, dict):
            raise ValueError("metrics is not an object")
    except (OSError, ValueError, KeyError):
        return f"unreadable result record {RESULT_FILE}"
    entry["metrics"] = metrics
    datasets_path = run_dir / DATASETS_FILE
    expected_arrays: list[object] = []
    if datasets_path.exists():
        try:
            plain = json.loads(datasets_path.read_text(encoding="utf-8"))
            expected_arrays = list(plain.get(ARRAYS_META_KEY, []) or [])
        except (OSError, ValueError):
            return f"unreadable {DATASETS_FILE}"
    arrays_path = run_dir / ARRAYS_FILE
    if expected_arrays and not arrays_path.exists():
        return f"missing {ARRAYS_FILE} (expected {len(expected_arrays)} arrays)"
    if arrays_path.exists() and not zipfile.is_zipfile(arrays_path):
        return f"corrupt {ARRAYS_FILE} (not a zip container)"
    return None


def _params_match(
    params: Mapping[str, object], where: Mapping[str, object]
) -> bool:
    """Whether ``params`` satisfies every ``where`` constraint."""
    for name, constraint in where.items():
        if name not in params:
            return False
        value = params[name]
        if isinstance(constraint, tuple) and len(constraint) == 2:
            try:
                lo, hi = float(constraint[0]), float(constraint[1])
                number = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return False
            if not lo <= number <= hi:
                return False
        else:
            if not _values_equal(value, constraint):
                return False
    return True


def _values_equal(a: object, b: object) -> bool:
    """Exact-match comparison folding int/float forms of one number."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    return a == b


def _hashable(value: object) -> object:
    """A hashable token for grouping parameter values."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


def _sort_token(value: object) -> tuple[int, object]:
    """A total-order token for sorting mixed-type axis values."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value))
    return (1, str(value))


def parse_where(specs: Iterable[str]) -> dict[str, object]:
    """Parse CLI ``--where name=value`` / ``name=lo:hi`` constraints."""
    where: dict[str, object] = {}
    for spec in specs:
        name, sep, text = spec.partition("=")
        name = name.strip()
        text = text.strip()
        if not sep or not name or not text:
            raise AnalysisError(
                f"bad --where {spec!r}; expected NAME=VALUE or NAME=LO:HI"
            )
        if ":" in text:
            lo_text, _, hi_text = text.partition(":")
            try:
                where[name] = (float(lo_text), float(hi_text))
            except ValueError:
                raise AnalysisError(
                    f"bad --where range {spec!r}; bounds must be numbers"
                ) from None
        else:
            try:
                number = float(text)
            except ValueError:
                where[name] = text
            else:
                where[name] = number
    return where
