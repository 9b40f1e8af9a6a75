"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro list                  # available experiments + params
    python -m repro device                # device presets summary
    python -m repro run E2 [--seed N] [--quick] [--set pump_mw=10]
    python -m repro run all --quick --parallel 4
    python -m repro report --quick        # paper-vs-measured summary
    python -m repro sweep E6 --scan pump_mw=2:20:10 --parallel 4
    python -m repro archive [RUN_ID]      # list / inspect stored runs
    python -m repro archive --prune 50    # keep only the newest 50 runs
    python -m repro cache stats|clear     # result-cache garbage collection

Analysis subcommands (the archive as a query surface)::

    python -m repro index                 # refresh + summarise the run index
    python -m repro query --experiment E7 --where pump_mw=2:8
    python -m repro analyze --pipeline paper-summary
    python -m repro report                # archive-backed if analyzed,
                                          # live recompute otherwise

Experiment-service subcommands (the always-on daemon)::

    python -m repro serve --workers 4     # boot the job queue + JSON-RPC API
    python -m repro runner --master URL   # lease + execute jobs remotely
    python -m repro fleet [--json]        # runner fleet status (leases)
    python -m repro submit E5 --quick --set pump_mw=2 --priority 5 --wait
    python -m repro submit E6 --quick --scan pump_mw=2:20:10
    python -m repro status [JOB_ID]       # queue table / one job (+traceback)
    python -m repro watch [JOB_ID]        # stream the live event feed
    python -m repro dashboard             # live TUI over the daemon
    python -m repro dashboard --replay    # re-render a root's obs journal
    python -m repro cancel JOB_ID

Telemetry subcommands (the observability surface)::

    python -m repro metrics [--json|--prom]  # counters/gauges/histograms
    python -m repro trace IDENT           # span tree for a run/job/trace id
    python -m repro bench-report          # benchmark trajectory tables

Developer tooling::

    python -m repro check [PATHS] [--rule ID] [--json]
    python -m repro check --list-rules

``run``, ``report`` and ``sweep`` dispatch through the
:class:`repro.runtime.engine.RunEngine`: every run is archived as a run
directory (``--archive-dir``, default ``./repro-runs`` or
``$REPRO_RUNTIME_ROOT``) and memoised in a content-addressed result
cache, so repeating an invocation is served from disk near-instantly
(disable with ``--no-cache``).  ``serve`` layers the persistent job
queue of :mod:`repro.service` over the same engine root; the client
subcommands discover a running daemon from that root alone.  Heavy
imports happen inside the command handlers — a fully cached invocation
never imports numpy.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ConfigurationError, ReproError


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Generation of Complex Quantum States via "
            "Integrated Frequency Combs' (DATE 2017)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")
    subparsers.add_parser("device", help="print the device presets")

    report_parser = subparsers.add_parser(
        "report",
        help=(
            "paper-vs-measured summary: archive-backed when an analysis "
            "report exists, live recompute otherwise"
        ),
    )
    report_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    report_parser.add_argument(
        "--quick", action="store_true", help="reduced statistics (live mode)"
    )
    report_parser.add_argument(
        "--live",
        action="store_true",
        help="force a live recompute even if an analysis report exists",
    )
    report_parser.add_argument(
        "--pipeline",
        default="paper-summary",
        help="analysis pipeline whose report to render (default paper-summary)",
    )
    report_parser.add_argument(
        "--json",
        action="store_true",
        help="print the deterministic JSON payload instead of Markdown",
    )
    _add_engine_options(report_parser)

    run_parser = subparsers.add_parser("run", help="run an experiment")
    run_parser.add_argument(
        "experiment",
        help="experiment id (E1..E9) or 'all'",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    statistics = run_parser.add_mutually_exclusive_group()
    statistics.add_argument(
        "--quick",
        action="store_true",
        help="reduced statistics (seconds instead of minutes)",
    )
    statistics.add_argument(
        "--full",
        action="store_true",
        help="full statistics (the benchmark configuration; default)",
    )
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="driver parameter override (repeatable); see 'repro list'",
    )
    _add_engine_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an experiment once per point of a parameter scan"
    )
    sweep_parser.add_argument("experiment", help="experiment id (E1..E9)")
    sweep_parser.add_argument(
        "--scan",
        dest="scans",
        action="append",
        required=True,
        metavar="NAME=LO:HI:N",
        help=(
            "scan spec: name=lo:hi:n (linear), name=log:lo:hi:n "
            "(geometric), or name=a,b,c (explicit); repeat for a grid"
        ),
    )
    sweep_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    sweep_statistics = sweep_parser.add_mutually_exclusive_group()
    sweep_statistics.add_argument(
        "--quick", action="store_true", help="reduced statistics per point"
    )
    sweep_statistics.add_argument(
        "--full", action="store_true", help="full statistics (default)"
    )
    sweep_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fixed parameter override applied to every point (repeatable)",
    )
    _add_engine_options(sweep_parser)

    archive_parser = subparsers.add_parser(
        "archive", help="list, inspect or prune archived run directories"
    )
    archive_parser.add_argument(
        "run_id",
        nargs="?",
        help="run id to inspect (omit to list all archived runs)",
    )
    archive_parser.add_argument(
        "--prune",
        type=int,
        default=None,
        metavar="N",
        help="delete all but the newest N run directories",
    )
    archive_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_parser.add_argument(
        "action", choices=["stats", "clear"], help="what to do with the cache"
    )
    cache_parser.add_argument(
        "--keep",
        type=int,
        default=0,
        metavar="N",
        help="clear: retain the newest N entries (default 0: delete all)",
    )
    cache_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    index_parser = subparsers.add_parser(
        "index", help="refresh the archive index and print its summary"
    )
    index_parser.add_argument(
        "--rebuild",
        action="store_true",
        help="full rescan of every run directory (ignores the journal)",
    )
    index_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    query_parser = subparsers.add_parser(
        "query", help="filter the archive index (no npz files are touched)"
    )
    query_parser.add_argument(
        "--experiment", default=None, help="experiment id filter (E1..E9)"
    )
    query_parser.add_argument(
        "--seed", type=int, default=None, help="seed filter"
    )
    query_parser.add_argument(
        "--status",
        default=None,
        choices=["ok", "failed", "corrupt"],
        help="status filter (default: every status)",
    )
    query_parser.add_argument(
        "--where",
        dest="where",
        action="append",
        default=[],
        metavar="NAME=VALUE|NAME=LO:HI",
        help="parameter constraint, exact or inclusive range (repeatable)",
    )
    query_parser.add_argument(
        "--latest",
        action="store_true",
        help="only the newest matching run",
    )
    query_parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of rows"
    )
    query_parser.add_argument(
        "--metric",
        dest="metrics",
        action="append",
        default=[],
        metavar="NAME",
        help="extra metric column to print (repeatable)",
    )
    query_parser.add_argument(
        "--sweeps",
        action="store_true",
        help="group the matches into sweep families instead of listing runs",
    )
    query_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run an analysis pipeline over the archive (cached, incremental)",
    )
    analyze_parser.add_argument(
        "--pipeline",
        default="paper-summary",
        help="pipeline name (default paper-summary); see DESIGN.md",
    )
    analyze_parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every analyzer even on an unchanged archive",
    )
    analyze_parser.add_argument(
        "--submit",
        action="store_true",
        help="queue the pipeline as an analyze job on the experiment service",
    )
    analyze_parser.add_argument(
        "--wait",
        action="store_true",
        help="with --submit: block until the job finishes",
    )
    analyze_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    analyze_parser.add_argument(
        "--url",
        default=None,
        help="with --submit: service URL (default: discover from the root)",
    )
    analyze_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the experiment service (job queue + JSON-RPC API)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default localhost)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0: ephemeral, published to the queue dir)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help=(
            "the daemon's own runner: worker threads, each running one "
            "job at a time, and pool processes (default 2); they claim "
            "through the same door as fleet runners and alone take "
            "analysis jobs; 0 = broker-only master (runners do all "
            "compute, analysis submissions are rejected)"
        ),
    )
    serve_parser.add_argument(
        "--in-process",
        action="store_true",
        help="compute cache misses on worker threads instead of a process pool",
    )
    serve_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="runner lease TTL: missed heartbeats for this long requeue "
        "the runner's jobs (default 10)",
    )
    serve_parser.add_argument(
        "--max-polls",
        type=int,
        default=None,
        metavar="N",
        help="cap on concurrently parked long-poll requests (default 32)",
    )
    serve_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    runner_parser = subparsers.add_parser(
        "runner",
        help="run a fleet runner: lease jobs from a master and execute them",
    )
    runner_parser.add_argument(
        "--master",
        default=None,
        metavar="URL",
        help=(
            "master base URL (http://host:port); default: discover a "
            "local 'repro serve' through the engine root"
        ),
    )
    runner_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent jobs on this runner (default 1)",
    )
    runner_parser.add_argument(
        "--in-process",
        action="store_true",
        help="compute in the runner process instead of a worker pool",
    )
    runner_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N jobs (default: run until stopped)",
    )
    runner_parser.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with nothing claimable (default: never)",
    )
    runner_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root used for --master discovery only (runners "
        "keep no state of their own)",
    )

    fleet_parser = subparsers.add_parser(
        "fleet", help="show the master's runner fleet (runners + leases)"
    )
    fleet_parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw fleet.status document",
    )
    _add_service_options(fleet_parser)

    submit_parser = subparsers.add_parser(
        "submit", help="enqueue an experiment run or sweep on the service"
    )
    submit_parser.add_argument("experiment", help="experiment id (E1..E9)")
    submit_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    submit_parser.add_argument(
        "--quick", action="store_true", help="reduced statistics"
    )
    submit_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="driver parameter override (repeatable); see 'repro list'",
    )
    submit_parser.add_argument(
        "--scan",
        dest="scans",
        action="append",
        default=[],
        metavar="NAME=LO:HI:N",
        help="scan spec; submits a sweep job (repeat for a grid)",
    )
    submit_parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="claim priority (higher runs first; default 0)",
    )
    submit_parser.add_argument(
        "--pipeline", default="main", help="pipeline label (default 'main')"
    )
    submit_parser.add_argument(
        "--no-dedupe",
        action="store_true",
        help="enqueue even if the cache or a live job already covers the spec",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its result",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait timeout in seconds (default 600)",
    )
    _add_service_options(submit_parser)

    status_parser = subparsers.add_parser(
        "status", help="show the service queue, or one job in detail"
    )
    status_parser.add_argument(
        "job_id",
        nargs="?",
        type=int,
        help="job id to inspect (omit for the queue table)",
    )
    _add_service_options(status_parser)

    watch_parser = subparsers.add_parser(
        "watch", help="stream the service's live job event feed"
    )
    watch_parser.add_argument(
        "job_id",
        nargs="?",
        type=int,
        help="stop once this job reaches a terminal state",
    )
    watch_parser.add_argument(
        "--since",
        type=int,
        default=0,
        help="replay buffered events after this sequence number first",
    )
    _add_service_options(watch_parser)

    cancel_parser = subparsers.add_parser(
        "cancel", help="cancel a queued (or, cooperatively, running) job"
    )
    cancel_parser.add_argument("job_id", type=int, help="job id to cancel")
    _add_service_options(cancel_parser)

    dashboard_parser = subparsers.add_parser(
        "dashboard",
        help=(
            "live terminal dashboard over the daemon (queue, "
            "sweeps, metrics); --replay re-renders a finished root"
        ),
    )
    dashboard_parser.add_argument(
        "--replay",
        action="store_true",
        help="render from the root's obs journal instead of a daemon",
    )
    dashboard_parser.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    dashboard_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds per poll cycle (live) or frame (replay); default 1.0",
    )
    _add_service_options(dashboard_parser)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help=(
            "print the telemetry snapshot (daemon RPC when reachable, "
            "journal summary otherwise)"
        ),
    )
    metrics_parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw snapshot document instead of text",
    )
    metrics_parser.add_argument(
        "--prom",
        action="store_true",
        help=(
            "print the Prometheus text exposition (same formatter as "
            "the daemon's GET /metrics)"
        ),
    )
    _add_service_options(metrics_parser)

    trace_parser = subparsers.add_parser(
        "trace",
        help="render the span tree of a run, job, or trace from the journal",
    )
    trace_parser.add_argument(
        "ident",
        help="run id, job id, experiment, pipeline, trace id, or span id",
    )
    trace_parser.add_argument(
        "--json",
        action="store_true",
        help="print the matching span documents instead of the tree",
    )
    trace_parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )

    bench_parser = subparsers.add_parser(
        "bench-report",
        help="summarise benchmark trajectory files (BENCH_*.json)",
    )
    bench_parser.add_argument(
        "--dir",
        default=".",
        help="directory holding BENCH_*.json files (default: cwd)",
    )
    bench_parser.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="show only the newest N entries per trajectory (default 10)",
    )
    bench_parser.add_argument(
        "--json",
        action="store_true",
        help="print every trajectory as one JSON document",
    )

    check_parser = subparsers.add_parser(
        "check",
        help="run the repo's AST-based invariant checker (static analysis)",
    )
    check_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: ./src if present)",
    )
    check_parser.add_argument(
        "--rule",
        dest="rules",
        action="append",
        default=[],
        metavar="ID",
        help="only run this rule id (repeatable); see --list-rules",
    )
    check_parser.add_argument(
        "--json",
        action="store_true",
        help="print the schema-2 JSON findings document instead of text",
    )
    check_parser.add_argument(
        "--update-digests",
        action="store_true",
        help="re-pin the cache-schema digest manifest (after a CACHE_SCHEMA bump)",
    )
    check_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """Attach the service-client flags shared by submit/status/watch/cancel."""
    parser.add_argument(
        "--url",
        default=None,
        help="service URL (default: discover from the engine root)",
    )
    parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root to discover the service from "
        "(default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Attach the run-engine flags shared by run/report/sweep."""
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for multi-run batches (default 1: serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute instead of serving the content-addressed cache",
    )
    parser.add_argument(
        "--no-archive",
        action="store_true",
        help="skip writing run directories",
    )
    parser.add_argument(
        "--archive-dir",
        default=None,
        help="engine root directory (default $REPRO_RUNTIME_ROOT or ./repro-runs)",
    )


def _build_engine(args: argparse.Namespace):
    """A RunEngine configured from the common CLI flags."""
    from repro.runtime.engine import RunEngine

    return RunEngine(
        root=args.archive_dir,
        use_cache=not args.no_cache,
        archive=not args.no_archive,
        max_workers=max(1, args.parallel),
        progress=lambda message: print(message, file=sys.stderr),
    )


def _parse_overrides(pairs: Sequence[str]) -> dict[str, object]:
    """Parse repeated ``--set name=value`` flags (numbers when possible)."""
    overrides: dict[str, object] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name or not value.strip():
            raise ConfigurationError(
                f"bad --set {pair!r}; expected NAME=VALUE"
            )
        text = value.strip()
        try:
            number = float(text)
        except ValueError:
            overrides[name] = text
        else:
            overrides[name] = int(number) if number.is_integer() else number
    return overrides


def command_list(args: argparse.Namespace) -> int:
    """Print the experiment catalog with each driver's override params."""
    from repro.experiments.catalog import CATALOG
    from repro.utils.tables import format_table

    rows = [
        [key, description, " ".join(sorted(names)) or "-"]
        for key, (description, names) in sorted(CATALOG.items())
    ]
    print(
        format_table(
            ["id", "description", "overrides"], rows, title="Experiments"
        )
    )
    return 0


def command_device(args: argparse.Namespace) -> int:
    """Print both chip presets."""
    from repro.core.source import QuantumCombSource
    from repro.utils.tables import format_table

    source = QuantumCombSource.paper_device()
    for name, summary in source.device_summary().items():
        rows = [[key, value] for key, value in summary.items()]
        print(format_table(["parameter", "value"], rows, title=name))
        print()
    return 0


def command_report(args: argparse.Namespace) -> int:
    """Print the paper-vs-measured summary.

    Archive-backed by default: when ``repro analyze`` has produced a
    report for ``--pipeline`` under this root, render it (instantly, no
    numpy import).  ``--live`` — or the absence of any analysis report —
    falls back to running every experiment through the engine.
    """
    if not args.live:
        from repro.analysis.report import load_report, render_markdown
        from repro.errors import AnalysisError

        try:
            document = load_report(args.archive_dir, args.pipeline)
        except AnalysisError:
            # Nothing analyzed yet.  Plain `repro report` falls through
            # to the live recompute, but flags that only make sense for
            # an analysis report must not be silently dropped.
            if args.json or args.pipeline != "paper-summary":
                raise ConfigurationError(
                    f"no analysis report for pipeline {args.pipeline!r} "
                    f"under this root; run 'repro analyze --pipeline "
                    f"{args.pipeline}' first (or drop --json/--pipeline "
                    "for a live recompute)"
                ) from None
        else:
            if args.json:
                import json

                print(json.dumps(document, indent=2, sort_keys=True))
            else:
                print(render_markdown(document), end="")
            return 0
    from repro.experiments.report import generate_report, render_report

    engine = _build_engine(args)
    outcomes = engine.run_all(seed=args.seed, quick=args.quick)
    comparisons = generate_report(
        seed=args.seed,
        quick=args.quick,
        runner=lambda key: outcomes[key].result,
    )
    print(render_report(comparisons))
    failures = [c for c in comparisons if not c.within_shape]
    return 0 if not failures else 1


def command_run(args: argparse.Namespace) -> int:
    """Run one experiment (or all of them) and print the results."""
    overrides = _parse_overrides(args.overrides)
    engine = _build_engine(args)
    if args.experiment.lower() == "all":
        if overrides:
            raise ConfigurationError(
                "--set applies to a single experiment, not 'run all'"
            )
        outcomes = list(
            engine.run_all(seed=args.seed, quick=args.quick).values()
        )
    else:
        outcomes = [
            engine.run(
                args.experiment,
                seed=args.seed,
                quick=args.quick,
                params=overrides,
            )
        ]
    for outcome in outcomes:
        print(outcome.result.to_text())
        print()
    return 0


def command_sweep(args: argparse.Namespace) -> int:
    """Run an experiment once per scan point and print the sweep table."""
    from repro.runtime.scan import GridScan, parse_scan

    scans = [parse_scan(spec) for spec in args.scans]
    scan = scans[0] if len(scans) == 1 else GridScan(*scans)
    engine = _build_engine(args)
    outcome = engine.sweep(
        args.experiment,
        scan,
        seed=args.seed,
        quick=args.quick,
        base_params=_parse_overrides(args.overrides),
    )
    print(_render_sweep(outcome))
    summary = (
        f"\n{len(outcome.outcomes)} points ({outcome.num_cached} cached, "
        f"{outcome.total_duration_s:.2f}s compute)"
    )
    if not args.no_archive:
        summary += f"; archived under {engine.runs_dir}"
    print(summary)
    return 0


def command_archive(args: argparse.Namespace) -> int:
    """List, prune, or inspect archived run directories."""
    from repro.runtime.engine import RunEngine
    from repro.utils.tables import format_table

    engine = RunEngine(root=args.archive_dir)
    if args.prune is not None:
        if args.run_id is not None:
            raise ConfigurationError(
                "--prune keeps the newest N runs; drop the run id"
            )
        removed = engine.prune_runs(args.prune)
        print(
            f"pruned {len(removed)} run(s), kept newest {args.prune} "
            f"under {engine.runs_dir}"
        )
        for run_id in removed:
            print(f"  removed {run_id}")
        return 0
    if args.run_id is None:
        manifests = engine.list_runs()
        if not manifests:
            print(f"no archived runs under {engine.runs_dir}")
            return 0
        rows = [
            [
                m.get("run_id", "?"),
                m.get("experiment_id", "?"),
                m.get("seed", "?"),
                "yes" if m.get("quick") else "no",
                " ".join(f"{k}={v}" for k, v in sorted(m.get("params", {}).items()))
                or "-",
                f"{m.get('duration_s', 0.0):.2f}",
            ]
            for m in manifests
        ]
        print(
            format_table(
                ["run id", "experiment", "seed", "quick", "params", "secs"],
                rows,
                title=f"Archived runs ({engine.runs_dir})",
            )
        )
        return 0
    manifest = engine.load_manifest(args.run_id)
    if "created_unix" in manifest:
        import datetime

        manifest["created"] = datetime.datetime.fromtimestamp(
            manifest.pop("created_unix")
        ).isoformat(timespec="seconds")
    error = manifest.pop("error", None)
    rows = [[key, manifest[key]] for key in sorted(manifest)]
    print(format_table(["field", "value"], rows, title=args.run_id))
    print()
    if manifest.get("status") == "failed":
        # Failure manifests archive the worker's formatted traceback in
        # place of a result record — show it instead of erroring out.
        error = error or {}
        print(f"run failed: {error.get('type', '?')}: {error.get('message', '?')}")
        if error.get("traceback"):
            print()
            print(error["traceback"].rstrip())
        return 1
    _, result = engine.load_run(args.run_id)
    print(result.to_text())
    return 0


def command_cache(args: argparse.Namespace) -> int:
    """Print result-cache statistics, or clear every entry."""
    from repro.runtime.engine import RunEngine
    from repro.utils.tables import format_table

    engine = RunEngine(root=args.archive_dir)
    cache = engine.cache  # always present: the engine defaults to use_cache
    if args.action == "clear":
        removed, freed = cache.clear(keep=args.keep)
        kept = f", kept newest {args.keep}" if args.keep else ""
        print(
            f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'} "
            f"({freed} bytes freed{kept})"
        )
        # The analysis cache is derived from the same archive; GC both
        # so a long-lived root cannot accumulate stale analyses.
        from repro.analysis.pipelines import PipelineRunner

        analyses = PipelineRunner(engine.root).clear_cache(keep=args.keep)
        if analyses:
            print(
                f"cleared {len(analyses)} cached "
                f"analys{'is' if len(analyses) == 1 else 'es'}"
            )
        return 0
    stats = cache.stats()
    rows = [[key, stats[key]] for key in sorted(stats)]
    print(format_table(["field", "value"], rows, title="Result cache"))
    return 0


def command_index(args: argparse.Namespace) -> int:
    """Refresh (or rebuild) the archive index and print its summary."""
    from repro.analysis.index import ArchiveIndex
    from repro.utils.tables import format_table

    index = ArchiveIndex(args.archive_dir)
    if args.rebuild:
        index.rebuild()
    else:
        index.refresh()
    stats = index.stats()
    rows: list[list[object]] = [["runs indexed", stats["runs"]]]
    for status, count in sorted(stats["by_status"].items()):
        rows.append([f"status {status}", count])
    for experiment, count in sorted(stats["by_experiment"].items()):
        rows.append([experiment, count])
    print(
        format_table(
            ["field", "count"],
            rows,
            title=f"Archive index ({stats['root']})",
        )
    )
    return 0


def command_query(args: argparse.Namespace) -> int:
    """Filter the archive index and print matching runs (or sweep groups)."""
    from repro.analysis.index import ArchiveIndex, parse_where
    from repro.utils.tables import format_table

    index = ArchiveIndex(args.archive_dir)
    index.refresh()
    if args.sweeps:
        if not args.experiment:
            raise ConfigurationError("--sweeps needs --experiment")
        groups = index.sweep_groups(args.experiment)
        if not groups:
            print(f"no ok runs of {args.experiment.upper()} indexed")
            return 0
        rows = [
            [
                ",".join(group["axes"]) or "-",
                group["seed"],
                "yes" if group["quick"] else "no",
                " ".join(
                    f"{k}={_round(v)}" for k, v in sorted(group["fixed"].items())
                )
                or "-",
                len(group["entries"]),
            ]
            for group in groups
        ]
        print(
            format_table(
                ["axes", "seed", "quick", "fixed params", "runs"],
                rows,
                title=f"Sweep families of {args.experiment.upper()}",
            )
        )
        return 0
    matches = index.query(
        experiment=args.experiment,
        seed=args.seed,
        status=args.status,
        where=parse_where(args.where),
        limit=1 if args.latest else args.limit,
    )
    if not matches:
        print("no matching runs in the index")
        return 0
    metric_names = args.metrics or _default_metric_columns(matches)
    headers = (
        ["run id", "experiment", "seed", "quick", "status", "params"]
        + metric_names
    )
    rows = []
    for entry in matches:
        metrics = entry.get("metrics", {})
        rows.append(
            [
                entry.get("run_id", "?"),
                entry.get("experiment_id", "?"),
                entry.get("seed", "?"),
                "yes" if entry.get("quick") else "no",
                entry.get("status", "?"),
                " ".join(
                    f"{k}={_round(v)}"
                    for k, v in sorted(entry.get("params", {}).items())
                )
                or "-",
            ]
            + [_round(metrics.get(name, "")) for name in metric_names]
        )
    print(format_table(headers, rows, title=f"{len(matches)} matching run(s)"))
    return 0


def _default_metric_columns(entries: list[dict]) -> list[str]:
    """Up to three metric columns shared by every matching entry."""
    shared: set[str] | None = None
    for entry in entries:
        names = set(entry.get("metrics", {}) or {})
        shared = names if shared is None else shared & names
    return sorted(shared or [])[:3]


def command_analyze(args: argparse.Namespace) -> int:
    """Run (or submit) an analysis pipeline and write its report."""
    if args.submit:
        if args.force:
            raise ConfigurationError(
                "--force is local-only (the service always consults the "
                "analysis cache); drop --submit, or bump the analyzer "
                "version to invalidate its entries"
            )
        client = _service_client(args)
        job = client.submit(analysis=args.pipeline)
        tag = " (deduplicated)" if job.get("deduped") else ""
        print(
            f"job {job['job_id']} analyze {args.pipeline} "
            f"→ {job['status']}{tag}"
        )
        if not args.wait:
            return 0
        finished = client.wait(job["job_id"], timeout=args.timeout)
        print(_render_job(finished))
        return 0 if finished.get("status") == "done" else 1
    from repro.analysis.pipelines import PipelineRunner
    from repro.analysis.report import write_report

    runner = PipelineRunner(args.archive_dir)
    result = runner.run(
        args.pipeline,
        force=args.force,
        on_outcome=lambda outcome: print(
            f"  {outcome.analyzer_id} v{outcome.version}: "
            + (
                "cached"
                if outcome.cached
                else f"computed in {outcome.duration_s:.2f}s"
            )
            + f" ({outcome.num_inputs} input runs)",
            file=sys.stderr,
        ),
    )
    json_path, md_path = write_report(runner.root, result)
    print(
        f"pipeline {args.pipeline}: {len(result.outcomes)} analyzer(s), "
        f"{result.num_cached} cached"
    )
    print(f"report: {json_path}")
    print(f"        {md_path}")
    return 0


def _service_client(args: argparse.Namespace):
    """A ServiceClient from --url, or discovered from the engine root."""
    from repro.service.client import ServiceClient

    if args.url:
        return ServiceClient(args.url)
    return ServiceClient.discover(args.archive_dir)


def command_serve(args: argparse.Namespace) -> int:
    """Boot the experiment service and block until interrupted."""
    from repro.service.api import ExperimentService

    extra: dict[str, object] = {}
    if args.lease_ttl is not None:
        extra["lease_ttl_s"] = args.lease_ttl
    if args.max_polls is not None:
        extra["max_polls"] = args.max_polls
    service = ExperimentService(
        root=args.archive_dir,
        host=args.host,
        port=args.port,
        workers=max(0, args.workers),
        use_processes=not args.in_process,
        on_event=lambda message: print(message, file=sys.stderr),
        **extra,
    )
    host, port = service.start()
    print(
        f"experiment service on http://{host}:{port} "
        f"(root {service.root}, {service.workers} workers); "
        "Ctrl-C to stop",
        file=sys.stderr,
    )
    service.serve_forever()
    from repro.runtime import pool

    # os._exit skips the interpreter-exit join and pool workers outlive
    # their parent, so stop the pool first.  The exit is hard because a
    # forked worker can (rarely) survive executor shutdown and wedge
    # atexit joins; queue state is already persisted (the store's
    # crash-safety contract), so the daemon must terminate regardless.
    pool.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    import os

    os._exit(0)


def command_runner(args: argparse.Namespace) -> int:
    """Run a fleet runner against a master until stopped (or drained)."""
    from repro.fleet.runner import FleetRunner

    if args.master:
        master_url = args.master
    else:
        from repro.service.api import read_service_file

        document = read_service_file(args.archive_dir)
        master_url = f"http://{document['host']}:{document['port']}"
    runner = FleetRunner(
        master_url,
        workers=max(1, args.workers),
        use_processes=not args.in_process,
        on_event=lambda message: print(message, file=sys.stderr),
    )
    runner.register()
    print(
        f"runner {runner.runner_id} on {master_url} "
        f"({runner.workers} worker(s)); Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        done = runner.run(
            max_jobs=args.max_jobs, idle_exit_s=args.idle_exit
        )
    except KeyboardInterrupt:
        runner.stop()
        return 0
    print(f"runner {runner.runner_id}: {done} job(s) executed", file=sys.stderr)
    return 0


def command_fleet(args: argparse.Namespace) -> int:
    """Show the master's runner fleet (``repro fleet``)."""
    import json

    client = _service_client(args)
    status = client.fleet_status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status.get("counts", {})
    print(
        f"fleet: {counts.get('alive', 0)} runner(s) alive, "
        f"{counts.get('lost', 0)} lost, {counts.get('leases', 0)} "
        f"lease(s) out (ttl {status.get('lease_ttl_s', '?')}s, "
        f"{status.get('expired_total', 0)} expired total)"
    )
    runners = status.get("runners", [])
    if runners:
        from repro.utils.tables import format_table

        rows = [
            [
                doc.get("runner_id", "?"),
                doc.get("status", "?"),
                doc.get("host", "?"),
                doc.get("pid", "?"),
                doc.get("workers", 1),
                doc.get("completed", 0),
                doc.get("failed", 0),
                _seconds(doc.get("age_s")),
            ]
            for doc in runners
        ]
        print(
            format_table(
                [
                    "runner",
                    "state",
                    "host",
                    "pid",
                    "workers",
                    "done",
                    "failed",
                    "last beat",
                ],
                rows,
                title="Runners",
            )
        )
    for lease in status.get("leases", []):
        print(
            f"lease: job {lease.get('job_id', '?')} "
            f"({lease.get('kind', '?')} {lease.get('experiment_id', '?')}) "
            f"→ {lease.get('runner_id', '?')}"
        )
    return 0


def command_submit(args: argparse.Namespace) -> int:
    """Enqueue one run (or sweep) on the service; optionally wait."""
    scan = None
    if args.scans:
        from repro.runtime.scan import GridScan, parse_scan

        scans = [parse_scan(spec) for spec in args.scans]
        scan = (scans[0] if len(scans) == 1 else GridScan(*scans)).describe()
    client = _service_client(args)
    job = client.submit(
        args.experiment,
        seed=args.seed,
        quick=args.quick,
        params=_parse_overrides(args.overrides),
        scan=scan,
        priority=args.priority,
        pipeline=args.pipeline,
        dedupe=not args.no_dedupe,
    )
    tag = " (deduplicated)" if job.get("deduped") else ""
    print(
        f"job {job['job_id']} {job['kind']} {job['experiment_id']} "
        f"→ {job['status']}{tag}"
    )
    if not args.wait:
        return 0
    finished = client.wait(job["job_id"], timeout=args.timeout)
    print(_render_job(finished))
    return 0 if finished.get("status") == "done" else 1


def command_status(args: argparse.Namespace) -> int:
    """Print the service queue table, or one job in full detail."""
    client = _service_client(args)
    if args.job_id is None:
        jobs = client.status()
        if not jobs:
            print("queue is empty")
            return 0
        from repro.utils.tables import format_table

        rows = [
            [
                job["job_id"],
                job["kind"],
                job["experiment_id"],
                job.get("pipeline", "main"),
                job.get("priority", 0),
                job["status"],
                f"{job.get('done_points', 0)}/{job.get('total_points', 1)}",
                job.get("cached_points", 0),
                job.get("runner_id") or "-",
                _seconds(job.get("wait_s")),
                _seconds(job.get("run_s")),
            ]
            for job in jobs
        ]
        print(
            format_table(
                [
                    "job",
                    "kind",
                    "experiment",
                    "pipeline",
                    "prio",
                    "status",
                    "points",
                    "cached",
                    "runner",
                    "wait",
                    "run",
                ],
                rows,
                title="Service queue",
            )
        )
        return 0
    job = client.status(args.job_id)
    print(_render_job(job))
    return 0 if job.get("status") != "failed" else 1


def command_watch(args: argparse.Namespace) -> int:
    """Stream the live event feed (until a given job finishes)."""
    client = _service_client(args)
    terminal = ("done", "failed", "cancelled")
    if args.job_id is not None:
        job = client.status(args.job_id)
        print(_event_line({
            "seq": "-", "event": "now", "job_id": job["job_id"],
            "status": job["status"], "done_points": job.get("done_points", 0),
            "total_points": job.get("total_points", 1),
        }))
        if job["status"] in terminal:
            return 0
    since = args.since
    try:
        while True:
            events, since, gap = client.events(since, timeout=30.0)
            if gap:
                print(
                    "warning: some events were rotated out of the "
                    "journal; resuming from the oldest retained event"
                )
            for event in events:
                print(_event_line(event))
                if (
                    args.job_id is not None
                    and event.get("job_id") == args.job_id
                    and event.get("status") in terminal
                ):
                    return 0
    except KeyboardInterrupt:
        return 0


def command_cancel(args: argparse.Namespace) -> int:
    """Cancel one service job."""
    client = _service_client(args)
    job = client.cancel(args.job_id)
    if job["status"] == "cancelled":
        print(f"job {job['job_id']} cancelled")
    else:
        checkpoint = (
            "the next point boundary"
            if job.get("kind") == "sweep"
            else "completion of the in-flight run"
        )
        print(
            f"job {job['job_id']} is {job['status']}; cancellation "
            f"requested (takes effect at {checkpoint})"
        )
    return 0


def _paint_frame(frame: str, once: bool) -> None:
    """Draw one dashboard frame (clearing the screen unless ``once``)."""
    if once:
        print(frame)
    else:
        # Clear + home, then the frame: flicker-free enough for 1 Hz.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()


def command_dashboard(args: argparse.Namespace) -> int:
    """The live terminal dashboard (or an offline journal replay).

    Live mode long-polls the queue journal's ``events`` feed (the one
    ``repro watch`` reads), re-reads ``health`` for the counts,
    ``fleet.status`` for the fleet panel and ``metrics`` for the
    metrics panel, and polls the bus topics of the held sweep jobs,
    subscribed by name; each cycle mutates the
    :class:`~repro.obs.dashboard.DashboardModel` and repaints.
    ``--replay`` drives the same model from the root's obs journal — no
    daemon, no sockets.
    """
    import time

    from repro.obs.dashboard import (
        DashboardModel,
        attach,
        refresh,
        render_frame,
        replay_frames,
    )

    if args.replay:
        root = _telemetry_root(args)
        model = frame = None
        for model, frame in replay_frames(root):
            if not args.once:
                _paint_frame(frame, once=False)
                time.sleep(min(args.interval, 0.5))
        if frame is None or model is None or not model.topics:
            print(
                f"no dataset publishes journaled under {root} "
                "(run a sweep with REPRO_OBS=1 first)",
                file=sys.stderr,
            )
            return 1
        if args.once:
            _paint_frame(frame, once=True)
        return 0

    client = _service_client(args)
    model = DashboardModel()
    try:
        attach(client, model)
        while True:
            _paint_frame(render_frame(model), once=args.once)
            if args.once:
                return 0
            # At most one frame per interval, however busy the queue.
            started = time.monotonic()
            refresh(client, model, timeout=args.interval)
            time.sleep(max(0.0, args.interval - (time.monotonic() - started)))
    except KeyboardInterrupt:
        return 0


def _telemetry_root(args: argparse.Namespace):
    """The engine root whose ``obs/`` journal telemetry commands read."""
    import pathlib

    from repro.runtime.engine import default_root

    if args.archive_dir:
        return pathlib.Path(args.archive_dir)
    return default_root()


def command_metrics(args: argparse.Namespace) -> int:
    """Print telemetry counters/gauges/histograms.

    Prefers the live daemon's ``metrics`` RPC (exact registry state);
    when no service is reachable it falls back to summarising the
    on-disk event journal, so a root stays inspectable after its daemon
    exits.  Neither path imports numpy.
    """
    from repro.errors import ServiceError
    from repro.obs import render as obs_render

    snapshot: dict[str, object] | None = None
    try:
        snapshot = dict(_service_client(args).metrics())
    except ServiceError:
        snapshot = None
    if snapshot is not None:
        if args.prom:
            # end="" — the exposition text is newline-terminated already.
            print(obs_render.render_prometheus(snapshot), end="")
        elif args.json:
            import json

            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(obs_render.render_metrics(snapshot))
        return 0
    from repro.obs import journal as obs_journal

    root = _telemetry_root(args)
    if args.prom:
        print(
            "no telemetry: --prom needs a live registry, and no daemon "
            f"is reachable for {root} (start one with 'repro serve', or "
            "scrape its GET /metrics endpoint directly)",
            file=sys.stderr,
        )
        return 1
    entries = obs_journal.read_events(root)
    if not entries:
        print(
            f"no telemetry: no daemon reachable and no journal under "
            f"{obs_journal.obs_dir(root)} (enable with REPRO_OBS=1 or "
            "run 'repro serve')",
            file=sys.stderr,
        )
        return 1
    summary = obs_render.journal_summary(entries)
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(obs_render.render_journal_summary(summary))
    return 0


def command_trace(args: argparse.Namespace) -> int:
    """Render the span tree(s) matching one identifier.

    The identifier may be a run id, a job id, an experiment id, a
    pipeline name, or a raw trace/span id; every span of each matching
    trace is drawn (journal order), including pool-worker spans replayed
    across the process boundary.
    """
    from repro.obs import journal as obs_journal
    from repro.obs import render as obs_render

    root = _telemetry_root(args)
    entries = obs_journal.read_events(root)
    spans = obs_render.select_traces(entries, args.ident)
    if not spans:
        total = len(obs_render.span_entries(entries))
        print(
            f"no spans matching {args.ident!r} under "
            f"{obs_journal.obs_dir(root)} ({total} spans journaled); "
            "pass a run id, job id, experiment, pipeline, or trace id",
            file=sys.stderr,
        )
        return 1
    if args.json:
        import json

        print(json.dumps(spans, indent=2, sort_keys=True))
    else:
        print(obs_render.render_trace(spans))
    return 0


def _flatten_numbers(
    document: dict, prefix: str = ""
) -> dict[str, float]:
    """Numeric leaves of a nested dict as sorted dotted-key columns."""
    out: dict[str, float] = {}
    for key in sorted(document):
        value = document[key]
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten_numbers(value, f"{dotted}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[dotted] = value
    return out


def command_bench_report(args: argparse.Namespace) -> int:
    """Render every ``BENCH_*.json`` trajectory as a table.

    Each benchmark appends one stamped entry per run (see
    ``benchmarks/conftest.py``): recorded time, git SHA, telemetry
    snapshot, and the workload figures.  This prints one table per file
    — rows are entries (oldest first), columns the numeric figures of
    the newest entry — so performance drift across commits is visible
    at a glance.
    """
    import json
    import pathlib

    directory = pathlib.Path(args.dir)
    files = sorted(directory.glob("BENCH_*.json"))
    trajectories: dict[str, list[dict]] = {}
    for path in files:
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(loaded, list) and loaded:
            entries = [e for e in loaded if isinstance(e, dict)]
            if entries:
                trajectories[path.name] = entries
    if not trajectories:
        print(
            f"no benchmark trajectories (BENCH_*.json) under {directory}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(trajectories, indent=2, sort_keys=True))
        return 0
    from repro.utils.tables import format_table

    first = True
    for name, entries in sorted(trajectories.items()):
        shown = entries[-max(1, args.last):]
        columns = list(
            _flatten_numbers(
                {
                    k: v
                    for k, v in shown[-1].items()
                    if k not in ("schema", "recorded_unix", "metrics")
                }
            )
        )[:6]
        rows = []
        for entry in shown:
            numbers = _flatten_numbers(entry)
            rows.append(
                [_bench_when(entry), str(entry.get("git_sha", "-"))[:9]]
                + [_round(numbers.get(column, "")) for column in columns]
            )
        if not first:
            print()
        first = False
        title = name
        if len(shown) < len(entries):
            title += f" (newest {len(shown)} of {len(entries)})"
        print(format_table(["recorded", "sha"] + columns, rows, title=title))
    return 0


def _bench_when(entry: dict) -> str:
    """A trajectory entry's recorded time as a compact local timestamp."""
    import datetime

    recorded = entry.get("recorded_unix")
    if not isinstance(recorded, (int, float)):
        return "-"
    return datetime.datetime.fromtimestamp(recorded).strftime(
        "%Y-%m-%d %H:%M"
    )


def command_check(args: argparse.Namespace) -> int:
    """Run the AST-based invariant checker (``repro check``).

    The implementation lives in :mod:`repro.devtools.check.cli`; this
    handler only lazy-imports it, keeping the dispatcher thin and the
    import cost off every other subcommand.
    """
    from repro.devtools.check.cli import run_check

    return run_check(args)


def _render_job(job: dict) -> str:
    """Multi-line detail view of one job document (used by status/submit)."""
    target = job["experiment_id"]
    if job.get("analysis_pipeline"):
        target = f"{job['analysis_pipeline']}"
    lines = [
        f"job {job['job_id']}: {job['kind']} {target} "
        f"seed={job.get('seed', 0)}"
        + (" quick" if job.get("quick") else "")
        + f" → {job['status']}"
    ]
    if job.get("params"):
        lines.append(
            "  params: "
            + " ".join(f"{k}={v}" for k, v in sorted(job["params"].items()))
        )
    lines.append(
        f"  points: {job.get('done_points', 0)}/{job.get('total_points', 1)}"
        f" ({job.get('cached_points', 0)} cached)"
        f"  priority: {job.get('priority', 0)}"
        f"  pipeline: {job.get('pipeline', 'main')}"
        f"  attempt: {job.get('attempt', 1)}"
    )
    timing = [
        f"{label}: {job[key]}"
        for label, key in (
            ("queued", "queued_at"),
            ("started", "started_at"),
            ("finished", "finished_at"),
        )
        if job.get(key)
    ]
    for label, key in (("wait", "wait_s"), ("run", "run_s")):
        if job.get(key) is not None:
            timing.append(f"{label}: {_seconds(job[key])}")
    if timing:
        lines.append("  " + "  ".join(timing))
    if job.get("runner_id"):
        lines.append(
            f"  runner: {job['runner_id']} on "
            f"{job.get('runner_host', '?')} pid {job.get('runner_pid', '?')}"
        )
    if job.get("run_ids"):
        lines.append(f"  runs: {' '.join(job['run_ids'])}")
    if job.get("metrics"):
        metrics = " ".join(
            f"{k}={_round(v)}" for k, v in sorted(job["metrics"].items())
        )
        lines.append(f"  metrics: {metrics}")
    error = job.get("error")
    if error:
        lines.append(f"  error: {error.get('type', '?')}: {error.get('message', '?')}")
        if error.get("traceback"):
            lines.append("")
            lines.append(error["traceback"].rstrip())
    return "\n".join(lines)


def _event_line(event: dict) -> str:
    """One journal event as a compact log line (used by watch)."""
    progress = ""
    total = event.get("total_points", 1)
    if total and total > 1:
        progress = f" [{event.get('done_points', 0)}/{total}]"
    wait = ""
    if event.get("event") == "started" and event.get("wait_s") is not None:
        wait = f" (waited {_seconds(event['wait_s'])})"
    return (
        f"{event.get('seq', '?'):>6}  job {event.get('job_id', '?')}  "
        f"{event.get('event', '?'):<16} {event.get('status', '')}"
        f"{progress}{wait}"
    )


def _seconds(value: object) -> str:
    """A duration in seconds for table display (``-`` when unknown)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:.2f}s"
    return "-"


def _render_sweep(outcome) -> str:
    """One table row per sweep point: scan values, status, metrics."""
    from repro.utils.tables import format_table

    scan_names = list(outcome.points[0]) if outcome.points else []
    metric_names = sorted(
        {name for o in outcome.outcomes for name in o.result.metrics}
        - set(scan_names)  # the scanned value already heads the row
    )
    headers = (
        scan_names
        + ["cached", "secs"]
        + metric_names
    )
    rows = []
    for point, run in zip(outcome.points, outcome.outcomes):
        row: list[object] = [_round(point[name]) for name in scan_names]
        row.append("yes" if run.cached else "no")
        row.append(f"{run.duration_s:.2f}")
        row.extend(
            _round(run.result.metrics.get(name, "")) for name in metric_names
        )
        rows.append(row)
    title = f"Sweep {outcome.experiment_id}: {outcome.scan_description}"
    return format_table(headers, rows, title=title)


def _round(value: object) -> object:
    """Round floats for table display; pass everything else through."""
    if isinstance(value, float):
        return round(value, 4)
    return value


#: The commands that compute experiments: their process runs OpenBLAS on
#: one thread (:func:`repro.utils.blas.one_blas_thread`).
_COMPUTE_COMMANDS = frozenset({"run", "sweep", "report", "serve", "runner"})

#: Exhaustive command → handler dispatch used by :func:`main`.
_COMMANDS = {
    "list": command_list,
    "device": command_device,
    "report": command_report,
    "run": command_run,
    "sweep": command_sweep,
    "archive": command_archive,
    "cache": command_cache,
    "index": command_index,
    "query": command_query,
    "analyze": command_analyze,
    "serve": command_serve,
    "runner": command_runner,
    "fleet": command_fleet,
    "submit": command_submit,
    "status": command_status,
    "watch": command_watch,
    "cancel": command_cancel,
    "dashboard": command_dashboard,
    "metrics": command_metrics,
    "trace": command_trace,
    "bench-report": command_bench_report,
    "check": command_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        # Unreachable through argparse (unknown subcommands exit earlier)
        # but keeps a registered-but-unwired command loudly diagnosable.
        print(
            f"error: command {args.command!r} has no handler; "
            f"known commands: {sorted(_COMMANDS)}",
            file=sys.stderr,
        )
        return 2
    if args.command in _COMPUTE_COMMANDS:
        from repro.utils.blas import one_blas_thread

        one_blas_thread()
    try:
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed stdout (e.g. `repro archive | head`);
        # swap in devnull so interpreter shutdown doesn't re-raise.
        import os

        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
