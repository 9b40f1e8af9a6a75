"""CLI integration for the run engine: sweep, archive, engine flags."""

import pytest

from repro.cli import _COMMANDS, _parse_overrides, build_parser, main
from repro.errors import ConfigurationError


class TestParser:
    def test_sweep_options(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "E6",
                "--scan",
                "pump_mw=2:20:10",
                "--parallel",
                "4",
                "--no-cache",
                "--quick",
            ]
        )
        assert args.command == "sweep"
        assert args.scans == ["pump_mw=2:20:10"]
        assert args.parallel == 4
        assert args.no_cache and args.quick

    def test_sweep_requires_scan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "E6"])

    def test_run_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "E6", "--set", "pump_mw=8", "--parallel", "2", "--no-archive"]
        )
        assert args.overrides == ["pump_mw=8"]
        assert args.parallel == 2 and args.no_archive

    def test_archive_parses(self):
        args = build_parser().parse_args(["archive"])
        assert args.command == "archive" and args.run_id is None

    def test_every_subcommand_has_a_handler(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.choices
        )
        assert set(subparsers.choices) == set(_COMMANDS)

    def test_unwired_command_prints_diagnostic(self, monkeypatch, capsys):
        import argparse

        import repro.cli as cli

        fake = argparse.ArgumentParser()
        fake.add_argument("command")
        monkeypatch.setattr(cli, "build_parser", lambda: fake)
        assert cli.main(["mystery"]) == 2
        assert "no handler" in capsys.readouterr().err


class TestOverrideParsing:
    def test_numbers_and_strings(self):
        parsed = _parse_overrides(["a=1", "b=2.5", "c=hello"])
        assert parsed == {"a": 1, "b": 2.5, "c": "hello"}
        assert isinstance(parsed["a"], int)

    @pytest.mark.parametrize("pair", ["", "a", "a=", "=2"])
    def test_bad_pairs_rejected(self, pair):
        with pytest.raises(ConfigurationError):
            _parse_overrides([pair])


class TestSweepCommand:
    def test_sweep_runs_and_archives(self, capsys):
        code = main(
            ["sweep", "E6", "--scan", "pump_mw=2:20:3", "--quick"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep E6" in out
        assert "3 points (0 cached" in out
        assert "archived under" in out

    def test_second_sweep_is_cached(self, capsys):
        argv = ["sweep", "E6", "--scan", "pump_mw=2:20:3", "--quick"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "3 points (3 cached" in capsys.readouterr().out

    def test_no_cache_flag_recomputes(self, capsys):
        argv = ["sweep", "E6", "--scan", "pump_mw=2:20:3", "--quick", "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "3 points (0 cached" in capsys.readouterr().out

    def test_grid_sweep_over_two_parameters(self, capsys):
        code = main(
            [
                "sweep",
                "E6",
                "--scan",
                "pump_mw=4:16:2",
                "--scan",
                "num_points=10,12",
                "--quick",
            ]
        )
        assert code == 0
        assert "4 points" in capsys.readouterr().out

    def test_bad_scan_spec_fails_cleanly(self, capsys):
        assert main(["sweep", "E6", "--scan", "pump_mw=bogus"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServiceParsers:
    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "8123", "--workers", "4", "--in-process"]
        )
        assert args.command == "serve"
        assert args.port == 8123 and args.workers == 4 and args.in_process

    def test_submit_options(self):
        args = build_parser().parse_args(
            [
                "submit",
                "E5",
                "--quick",
                "--set",
                "pump_mw=2",
                "--priority",
                "5",
                "--wait",
                "--timeout",
                "30",
            ]
        )
        assert args.experiment == "E5" and args.priority == 5
        assert args.wait and args.timeout == 30.0

    def test_submit_scan_makes_sweep(self):
        args = build_parser().parse_args(
            ["submit", "E6", "--scan", "pump_mw=2:20:5"]
        )
        assert args.scans == ["pump_mw=2:20:5"]

    def test_status_watch_cancel_parse(self):
        assert build_parser().parse_args(["status"]).job_id is None
        assert build_parser().parse_args(["status", "3"]).job_id == 3
        assert build_parser().parse_args(["watch", "--since", "7"]).since == 7
        assert build_parser().parse_args(["cancel", "2"]).job_id == 2

    def test_cache_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_client_commands_fail_cleanly_without_server(self, capsys):
        assert main(["status"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_empty(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "Result cache" in out

    def test_stats_after_run_then_clear(self, capsys):
        assert main(["run", "E6", "--quick"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "| 1 " in capsys.readouterr().out.replace("entries        |", "|")
        assert main(["cache", "clear"]) == 0
        assert "cleared 1 cache entry" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        # Recomputation happens after a clear: no cached entry left.
        assert main(["run", "E6", "--quick"]) == 0


class TestArchivePrune:
    def test_prune_keeps_newest(self, capsys):
        for mw in (4, 8, 12):
            assert main(["run", "E6", "--quick", "--set", f"pump_mw={mw}"]) == 0
        capsys.readouterr()
        assert main(["archive", "--prune", "1"]) == 0
        assert "pruned 2 run(s)" in capsys.readouterr().out
        assert main(["archive"]) == 0
        out = capsys.readouterr().out
        assert out.count("E6-") == 1

    def test_prune_with_run_id_rejected(self, capsys):
        assert main(["archive", "E6-abc", "--prune", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServiceCommandsEndToEnd:
    """CLI client subcommands against an in-process service."""

    @pytest.fixture
    def service(self):
        """A live service on the hermetic default root."""
        from repro.service.api import ExperimentService

        svc = ExperimentService(port=0, workers=2, use_processes=False)
        svc.start()
        yield svc
        svc.stop()

    def test_submit_wait_status_cancel(self, service, capsys):
        assert main(["submit", "E6", "--quick", "--wait", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "job 1 run E6" in out and "→ done" in out
        assert main(["status"]) == 0
        assert "Service queue" in capsys.readouterr().out
        assert main(["status", "1"]) == 0
        assert "metrics:" in capsys.readouterr().out
        assert main(["watch", "1"]) == 0
        assert "done" in capsys.readouterr().out

    def test_cancel_pending_job(self, service, capsys):
        service.runner.stop()  # keep the job queued
        assert main(["submit", "E6", "--quick"]) == 0
        capsys.readouterr()
        assert main(["cancel", "1"]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_failed_job_status_shows_traceback(self, service, capsys):
        assert (
            main(
                [
                    "submit",
                    "E7",
                    "--quick",
                    "--set",
                    "dwell_s=-1",
                    "--wait",
                    "--timeout",
                    "120",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "error:" in out and "Traceback" in out
        assert main(["status", "1"]) == 1
        assert "Traceback" in capsys.readouterr().out

    def test_submit_sweep_streams_points(self, service, capsys):
        assert (
            main(
                [
                    "submit",
                    "E6",
                    "--quick",
                    "--scan",
                    "pump_mw=2:20:3",
                    "--wait",
                    "--timeout",
                    "120",
                ]
            )
            == 0
        )
        assert "points: 3/3" in capsys.readouterr().out


class TestArchiveCommand:
    def test_empty_archive_lists_nothing(self, capsys):
        assert main(["archive"]) == 0
        assert "no archived runs" in capsys.readouterr().out

    def test_list_and_inspect_after_run(self, capsys):
        assert main(["run", "E6", "--quick", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["archive"]) == 0
        out = capsys.readouterr().out
        assert "E6-" in out
        run_id = next(
            token for token in out.split() if token.startswith("E6-")
        )
        assert main(["archive", run_id]) == 0
        inspected = capsys.readouterr().out
        assert "fingerprint" in inspected and "[E6]" in inspected

    def test_unknown_run_id_fails_cleanly(self, capsys):
        assert main(["archive", "E6-nope"]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.slow
class TestRunThroughEngine:
    def test_run_with_override(self, capsys):
        assert main(["run", "E6", "--quick", "--set", "pump_mw=18"]) == 0
        assert "output_at_pump_uw" in capsys.readouterr().out

    def test_run_all_quick_parallel_smoke(self, capsys):
        code = main(["run", "all", "--quick", "--parallel", "4"])
        assert code == 0
        out = capsys.readouterr().out
        for key in (f"E{i}" for i in range(1, 10)):
            assert f"[{key}]" in out

    def test_run_all_rejects_set(self, capsys):
        assert main(["run", "all", "--quick", "--set", "pump_mw=3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_quick_through_engine(self, capsys):
        # Cached by the run-all smoke test only within one process; here
        # it recomputes — keep it cheap by reusing the same tmp cache.
        assert main(["run", "all", "--quick"]) in (0, 1)
        capsys.readouterr()
        code = main(["report", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Paper vs measured" in out
