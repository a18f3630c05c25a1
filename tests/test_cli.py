"""Tests for repro.cli."""

import argparse
import errno
import gc
import importlib
import json
import os
import pathlib
import socket
import weakref

import pytest

from repro import cli
from repro.analysis.report import ExperimentReport
from repro.cli import build_parser, main
from repro.codec import decode
from repro.io import load_json
from repro.runconfig import ENVIRONMENT


#: Every subcommand's options as ``build_parser()`` declares them, sorted:
#: (option, dest, default, type, choices).
OPTION_TABLE = {
    "fig1": [
        ("--fault-profile", "fault_profile", None, None, None),
        ("--json", "json", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--scale", "scale", 0.1, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "table1": [
        ("--fault-profile", "fault_profile", None, None, None),
        ("--json", "json", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--scale", "scale", 0.1, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "fig2": [
        ("--fault-profile", "fault_profile", None, None, None),
        ("--json", "json", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--scale", "scale", 0.1, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "table2": [
        ("--json", "json", None, None, None),
        ("--relays-per-ip", "relays_per_ip", 16, "int", None),
        ("--rotation-hours", "rotation_hours", 1, "int", None),
        ("--scale", "scale", 0.05, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--sweep-hours", "sweep_hours", 6, "int", None),
        ("--thinning", "thinning", 1.0, "float", None),
        ("--top", "top", 30, "int", None),
        ("--workers", "workers", None, "int", None),
    ],
    "fig3": [
        ("--clients", "clients", 1500, "int", None),
        ("--days", "days", 2, "int", None),
        ("--guards", "guards", 12, "int", None),
        ("--json", "json", None, None, None),
        ("--relays", "relays", 400, "int", None),
        ("--seed", "seed", 0, "int", None),
    ],
    "sec6": [
        ("--buyers", "buyers", 800, "int", None),
        ("--days", "days", 7, "int", None),
        ("--guards", "guards", 14, "int", None),
        ("--json", "json", None, None, None),
        ("--relays", "relays", 400, "int", None),
        ("--seed", "seed", 0, "int", None),
        ("--sellers", "sellers", 40, "int", None),
    ],
    "sec7": [
        ("--json", "json", None, None, None),
        ("--scale", "scale", 0.25, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "harvest": [
        ("--ips", "ips", 20, "int", None),
        ("--json", "json", None, None, None),
        ("--relays-per-ip", "relays_per_ip", 16, "int", None),
        ("--scale", "scale", 0.05, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--sweep-hours", "sweep_hours", 10, "int", None),
        ("--workers", "workers", None, "int", None),
    ],
    "all": [
        ("--fault-profile", "fault_profile", None, None, None),
        ("--json", "json", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--scale", "scale", 0.05, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "store": [
        ("--keep-epochs", "keep_epochs", None, "int", None),
        ("--store", "store", None, None, None),
        ("action", "action", None, None, ("ls", "gc", "verify")),
    ],
    "obs": [
        ("--fault-profile", "fault_profile", None, None, None),
        ("--format", "format", "text", None, ("text", "json")),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--scale", "scale", 0.02, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--workers", "workers", None, "int", None),
    ],
    "chaos": [
        ("--json", "json", None, None, None),
        ("--rates", "rates", "0,0.02,0.05,0.1,0.2", None, None),
        ("--scale", "scale", 0.02, "float", None),
        ("--scan-days", "scan_days", 8, "int", None),
        ("--seed", "seed", 0, "int", None),
        ("--workers", "workers", None, "int", None),
    ],
    "crashtest": [
        ("--clean-json", "clean_json", None, None, None),
        ("--crash-profile", "crash_profile", None, None, None),
        ("--fault-profile", "fault_profile", None, None, None),
        ("--json", "json", None, None, None),
        ("--manifest-out", "manifest_out", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--min-crashes", "min_crashes", 5, "int", None),
        ("--scale", "scale", 0.02, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", ".repro-crashtest-store", None, None),
        ("--workers", "workers", None, "int", None),
    ],
    "serve": [
        ("--crash-profile", "crash_profile", None, None, None),
        ("--epochs", "epochs", 3, "int", None),
        ("--fault-profile", "fault_profile", None, None, None),
        ("--host", "host", "127.0.0.1", None, None),
        ("--http-workers", "http_workers", 8, "int", None),
        ("--json", "json", None, None, None),
        ("--metrics-out", "metrics_out", None, None, None),
        ("--no-serve", "no_serve", False, None, None),
        ("--port", "port", 8750, "int", None),
        ("--scale", "scale", 0.05, "float", None),
        ("--seed", "seed", 0, "int", None),
        ("--store", "store", None, None, None),
        ("--sweep-hours", "sweep_hours", 12, "int", None),
        ("--workers", "workers", None, "int", None),
    ],
}


def option_table(parser):
    """``OPTION_TABLE``'s rows, read off ``parser``."""
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for name, command in commands.choices.items():
        rows = [
            (
                "/".join(action.option_strings) or action.dest,
                action.dest,
                action.default,
                getattr(action.type, "__name__", action.type),
                action.choices,
            )
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        table[name] = sorted(rows)
    return table


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig1", "table1", "fig2", "table2", "fig3", "sec6", "sec7",
                        "harvest", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_options(self):
        args = build_parser().parse_args(["fig1", "--seed", "9", "--scale", "0.2"])
        assert args.seed == 9
        assert args.scale == 0.2

    def test_table2_options(self):
        args = build_parser().parse_args(
            ["table2", "--sweep-hours", "4", "--thinning", "0.5", "--top", "10"]
        )
        assert args.sweep_hours == 4
        assert args.thinning == 0.5
        assert args.top == 10

    def test_option_table_is_pinned(self):
        assert option_table(build_parser()) == OPTION_TABLE

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestCollectorPolicy:
    """``main`` runs a command under its own gen-0 threshold and gives the
    caller's thresholds back, also when the command raises."""

    CALLER = (1234, 11, 12)

    @pytest.fixture
    def seen(self, monkeypatch):
        """Thresholds the ``fig1`` runner saw; ``--seed 13`` makes it raise."""
        thresholds = []

        def runner(args, config):
            thresholds.append(gc.get_threshold())
            if config.seed == 13:
                raise RuntimeError("runner failed")
            return 0

        monkeypatch.setitem(cli._RUNNERS, "fig1", runner)
        saved = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        yield thresholds
        gc.set_threshold(*saved)

    def test_command_runs_under_the_policy_and_thresholds_come_back(self, seen):
        assert main(["fig1"]) == 0
        assert seen == [(cli.GC_GEN0_THRESHOLD, 11, 12)]
        assert gc.get_threshold() == self.CALLER

    def test_thresholds_come_back_when_the_command_raises(self, seen):
        with pytest.raises(RuntimeError, match="runner failed"):
            main(["fig1", "--seed", "13"])
        assert seen == [(cli.GC_GEN0_THRESHOLD, 11, 12)]
        assert gc.get_threshold() == self.CALLER


class TestExecution:
    def test_fig1_runs_and_archives(self, tmp_path, capsys):
        json_path = tmp_path / "fig1.json"
        code = main(["fig1", "--scale", "0.02", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig1-open-ports" in out
        assert "55080-Skynet" in out
        report = decode(ExperimentReport, load_json(json_path))
        assert report.experiment == "fig1-open-ports"

    def test_harvest_runs(self, capsys):
        code = main(
            ["harvest", "--scale", "0.01", "--ips", "6", "--relays-per-ip", "8"]
        )
        assert code == 0
        assert "harvest-shadow-relays" in capsys.readouterr().out

    def test_fig3_runs(self, capsys):
        code = main(["fig3", "--relays", "200", "--clients", "300", "--days", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3-client-geomap" in out


class TestCampaignCommands:
    """``repro fig1``, ``table1`` and ``fig2`` print the sections ``repro
    all`` prints for the same world, paper expectations included."""

    @pytest.mark.parametrize("command", ["fig1", "table1", "fig2"])
    def test_section_matches_the_all_golden(self, command, capsys, monkeypatch):
        from tests.goldens.cases import ALL_SCALE, ALL_SEED

        golden = (pathlib.Path(__file__).parent / "goldens" / "all_small.txt").read_text(
            encoding="utf-8"
        )
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        argv = [command, "--scale", str(ALL_SCALE), "--seed", str(ALL_SEED)]
        assert main(argv + ["--workers", "1", "--fault-profile", "none"]) == 0
        section = capsys.readouterr().out.split("\n\n")[0] + "\n\n"
        assert section.startswith("== ")
        assert section in golden


class TestRunAllDropsFinishedStages:
    """``repro all`` keeps only each stage's report: no stage's result, which
    can hold a whole world, is alive while the next stage runs."""

    RUNNERS = [
        ("repro.experiments.fig1_ports", "run_fig1"),
        ("repro.experiments.table1_http", "run_table1"),
        ("repro.experiments.fig2_topics", "run_fig2"),
        ("repro.experiments.table2_popularity", "run_table2"),
        ("repro.experiments.fig3_geomap", "run_fig3"),
        ("repro.experiments.sec7_tracking", "run_sec7"),
        ("repro.experiments.harvest", "run_harvest"),
    ]

    def test_each_result_is_dead_when_the_next_stage_starts(self, monkeypatch, capsys):
        finished = []  # (runner name, weakref to its result)
        alive_at_start = []

        def watched(name, real):
            def runner(*args, **kwargs):
                alive = [done for done, ref in finished if ref() is not None]
                alive_at_start.append((name, alive))
                result = real(*args, **kwargs)
                finished.append((name, weakref.ref(result)))
                return result

            return runner

        for module_name, name in self.RUNNERS:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert main(["all", "--scale", "0.01", "--seed", "1", "--workers", "1"]) == 0
        capsys.readouterr()
        assert alive_at_start == [(name, []) for _, name in self.RUNNERS]
        assert [ref() for _, ref in finished] == [None] * len(self.RUNNERS)


class TestCrashtest:
    def test_parser_registers_crashtest(self):
        args = build_parser().parse_args(
            ["crashtest", "--crash-profile", "light", "--min-crashes", "2"]
        )
        assert args.command == "crashtest"
        assert args.crash_profile == "light"
        assert args.min_crashes == 2
        assert args.scale == 0.02
        assert args.store == ".repro-crashtest-store"

    def test_crashtest_survives_the_moderate_schedule(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.io import load_json
        from repro.supervise import CompletenessManifest

        monkeypatch.delenv("REPRO_CRASHES", raising=False)
        crash_json = tmp_path / "crash.json"
        clean_json = tmp_path / "clean.json"
        manifest_json = tmp_path / "manifest.json"
        code = main(
            [
                "crashtest",
                "--scale",
                "0.02",
                "--seed",
                "11",
                "--store",
                str(tmp_path / "store"),
                "--json",
                str(crash_json),
                "--clean-json",
                str(clean_json),
                "--manifest-out",
                str(manifest_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crashtest: OK" in out
        assert "byte-identical" in out
        # The archived documents are what CI byte-compares.
        assert crash_json.read_bytes() == clean_json.read_bytes()
        manifest = decode(CompletenessManifest, load_json(manifest_json))
        assert manifest.complete
        assert len(manifest.crashes) >= 5
        assert len({e.point for e in manifest.crashes}) >= 5
        assert manifest.restarts_used >= 5
        assert manifest.crash_plan["name"] == "moderate"

    def test_crashtest_fails_below_min_crashes(self, tmp_path, capsys):
        code = main(
            [
                "crashtest",
                "--scale",
                "0.02",
                "--seed",
                "11",
                "--crash-profile",
                "none",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "crashtest: FAIL" in err
        assert "need >= 5" in err

    def test_crashtest_refuses_to_wipe_a_foreign_directory(self, tmp_path, capsys):
        kept = tmp_path / "notes.txt"
        kept.write_text("not a store\n", encoding="utf-8")
        (tmp_path / "objects").mkdir()
        code = main(["crashtest", "--scale", "0.02", "--store", str(tmp_path)])
        assert code == 2
        assert kept.read_text(encoding="utf-8") == "not a store\n"
        assert (tmp_path / "objects").is_dir()
        err = capsys.readouterr().err
        assert err.startswith("repro crashtest: error: ")
        assert "notes.txt" in err


class TestObservability:
    def test_obs_prints_text_snapshot(self, capsys):
        code = main(["obs", "--scale", "0.01", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# metrics" in out
        assert "scan_ports_requested_total" in out
        assert "# spans (simulated seconds)" in out
        assert "pipeline.scan" in out

    def test_obs_json_format_parses(self, capsys):
        code = main(["obs", "--scale", "0.01", "--seed", "3", "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in document["metrics"]}
        assert "scan_ports_requested_total" in names
        assert document["spans"]

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "metrics.txt"
        code = main(
            ["fig1", "--scale", "0.01", "--metrics-out", str(snap)]
        )
        assert code == 0
        assert f"[metrics snapshot written to {snap}]" in capsys.readouterr().out
        assert "# metrics" in snap.read_text()

    def test_metrics_env_variable_is_the_default(
        self, tmp_path, capsys, monkeypatch
    ):
        snap = tmp_path / "metrics.json"
        monkeypatch.setenv("REPRO_METRICS", str(snap))
        assert main(["obs", "--scale", "0.01", "--seed", "3"]) == 0
        capsys.readouterr()
        json.loads(snap.read_text())


class TestStoreCli:
    def test_warm_rerun_replays_and_matches_bytes(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        args = ["fig1", "--scale", "0.02", "--store", root]
        assert main(args + ["--json", str(first)]) == 0
        capsys.readouterr()
        assert main(args + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

        assert main(["store", "ls", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "run-000002" in out
        assert "misses=0" in out

    def test_store_env_variable_is_the_default(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "env-store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        assert main(["fig1", "--scale", "0.02"]) == 0
        capsys.readouterr()
        assert main(["store", "ls"]) == 0
        assert "misses=" in capsys.readouterr().out
        assert (root / "ledger.jsonl").exists()

    def test_store_verify_and_gc_clean(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["fig1", "--scale", "0.02", "--store", root]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", root]) == 0
        assert "[verify: 0 problem(s)" in capsys.readouterr().out
        assert main(["store", "gc", "--store", root]) == 0
        assert "removed 0 object(s)" in capsys.readouterr().out

    def test_store_verify_flags_corruption(self, tmp_path, capsys):
        root = tmp_path / "store"
        assert main(["fig1", "--scale", "0.02", "--store", str(root)]) == 0
        capsys.readouterr()
        victim = next((root / "objects").glob("*/*.json"))
        victim.write_bytes(b'{"tampered": true}')
        assert main(["store", "verify", "--store", str(root)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_store_without_configuration_exits_two(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "ls"]) == 2
        assert "no store configured" in capsys.readouterr().err


class TestOptionChecks:
    """A command's own out-of-range option exits 2 with one usage line
    before its runner does any work, as a bad shared setting does."""

    CASES = [
        (["fig3", "--relays", "0", "--clients", "50"], "--relays must be >= 1, got 0"),
        (["fig3", "--guards", "0"], "--guards must be >= 1, got 0"),
        (["fig3", "--clients", "0"], "--clients must be >= 1, got 0"),
        (["fig3", "--days", "0"], "--days must be >= 1, got 0"),
        (["sec6", "--relays", "0"], "--relays must be >= 1, got 0"),
        (["sec6", "--guards", "0"], "--guards must be >= 1, got 0"),
        (["sec6", "--buyers", "0"], "--buyers must be >= 1, got 0"),
        (["sec6", "--sellers", "0"], "--sellers must be >= 1, got 0"),
        (["sec6", "--days", "0"], "--days must be >= 1, got 0"),
        (["table2", "--sweep-hours", "0"], "--sweep-hours must be >= 1, got 0"),
        (["table2", "--rotation-hours", "0"], "--rotation-hours must be >= 1, got 0"),
        (["table2", "--relays-per-ip", "0"], "--relays-per-ip must be >= 1, got 0"),
        (["table2", "--thinning", "2"], "--thinning must be in (0, 1], got 2.0"),
        (["table2", "--thinning", "0"], "--thinning must be in (0, 1], got 0.0"),
        (["harvest", "--ips", "0"], "--ips must be >= 1, got 0"),
        (["harvest", "--relays-per-ip", "0"], "--relays-per-ip must be >= 1, got 0"),
        (["harvest", "--sweep-hours", "0"], "--sweep-hours must be >= 1, got 0"),
        (
            ["chaos", "--rates", "x"],
            "--rates must be comma-separated floats: "
            "could not convert string to float: 'x'",
        ),
        (["chaos", "--rates", "0,2"], "--rates must be in [0, 1], got 2.0"),
        (["chaos", "--rates", ","], "--rates must name at least one rate"),
        (
            ["serve", "--port", "70000", "--epochs", "1", "--sweep-hours", "1"],
            "--port must be in [0, 65535], got 70000",
        ),
        (["serve", "--port", "-1"], "--port must be in [0, 65535], got -1"),
        (["serve", "--http-workers", "0"], "--http-workers must be >= 1, got 0"),
    ]

    @pytest.mark.parametrize(
        "argv, message", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_exits_two_before_the_runner(self, argv, message, monkeypatch, capsys):
        for variable in ENVIRONMENT.values():
            monkeypatch.delenv(variable, raising=False)
        ran = []
        monkeypatch.setitem(cli._RUNNERS, argv[0], lambda *args: ran.append(args))
        assert main(argv) == 2
        assert ran == []
        assert capsys.readouterr().err == f"repro {argv[0]}: error: {message}\n"


def test_serve_announces_the_port_it_bound(tmp_path, monkeypatch, capsys):
    from repro.service.http import ServiceHTTPServer

    monkeypatch.delenv("REPRO_METRICS", raising=False)
    bound = []
    monkeypatch.setattr(
        ServiceHTTPServer,
        "serve_forever",
        lambda self: bound.append(self.server_address[1]),
    )
    argv = [
        "serve", "--port", "0", "--epochs", "1", "--scale", "0.01",
        "--sweep-hours", "1", "--workers", "1", "--fault-profile", "none",
        "--crash-profile", "none", "--store", str(tmp_path / "store"),
    ]
    assert main(argv) == 0
    (port,) = bound
    assert port != 0
    out = capsys.readouterr().out
    assert f"[serving on http://127.0.0.1:{port} — 1 epoch(s) ready]" in out


def test_serve_refuses_a_port_in_use_before_any_epoch(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        argv = [
            "serve", "--port", str(port), "--epochs", "1", "--scale", "0.01",
            "--sweep-hours", "1", "--workers", "1", "--fault-profile", "none",
            "--crash-profile", "none", "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"repro serve: error: cannot serve on 127.0.0.1:{port}: "
        f"{os.strerror(errno.EADDRINUSE)}\n"
    )
    assert "[epoch" not in captured.out
