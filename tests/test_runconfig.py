"""Tests for repro.runconfig and how every command reads it."""

import pytest

from repro import cli
from repro.cli import main
from repro.errors import ConfigError
from repro.faults.profiles import FAULTS_ENV
from repro.parallel.executor import WORKERS_ENV
from repro.runconfig import ENVIRONMENT, RunConfig

UNSET = {name: None for name in ENVIRONMENT}


@pytest.fixture
def clean_env(monkeypatch):
    for variable in ENVIRONMENT.values():
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


class TestResolve:
    def test_unset_settings_take_the_defaults(self, clean_env):
        assert RunConfig.resolve(UNSET) == RunConfig()

    def test_flags_win_over_the_environment(self, clean_env):
        for variable in ENVIRONMENT.values():
            clean_env.setenv(variable, "heavy")
        clean_env.setenv("REPRO_WORKERS", "3")
        config = RunConfig.resolve(
            {
                "workers": 2,
                "fault_profile": "light",
                "store_dir": "cli-store",
                "metrics_path": "cli.txt",
                "crash_profile": "moderate",
            }
        )
        assert config == RunConfig(
            workers=2,
            fault_profile="light",
            store_dir="cli-store",
            metrics_path="cli.txt",
            crash_profile="moderate",
        )

    def test_the_environment_is_the_ambient_default(self, clean_env):
        clean_env.setenv("REPRO_WORKERS", " 2 ")
        clean_env.setenv("REPRO_FAULTS", "Moderate")
        clean_env.setenv("REPRO_STORE", "env-store")
        clean_env.setenv("REPRO_METRICS", "env.json")
        clean_env.setenv("REPRO_CRASHES", "light")
        assert RunConfig.resolve(UNSET) == RunConfig(
            workers=2,
            fault_profile="moderate",
            store_dir="env-store",
            metrics_path="env.json",
            crash_profile="light",
        )

    def test_blank_environment_falls_through_to_the_command_fallback(
        self, clean_env
    ):
        clean_env.setenv("REPRO_STORE", "   ")
        clean_env.setenv("REPRO_CRASHES", "")
        config = RunConfig.resolve(
            UNSET, {"store_dir": "fallback", "crash_profile": "moderate"}
        )
        assert (config.store_dir, config.crash_profile) == ("fallback", "moderate")

    def test_an_undeclared_setting_never_reads_the_environment(self, clean_env):
        clean_env.setenv("REPRO_STORE", "env-store")
        clean_env.setenv("REPRO_WORKERS", "x")
        assert RunConfig.resolve({"seed": 4}) == RunConfig(seed=4)

    def test_variable_names_agree_with_the_library(self):
        assert ENVIRONMENT["workers"] == WORKERS_ENV
        assert ENVIRONMENT["fault_profile"] == FAULTS_ENV


class TestChecks:
    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"scale": 0.0}, r"--scale must be > 0, got 0\.0"),
            ({"scale": float("nan")}, "--scale must be > 0"),
            ({"workers": 0}, "--workers must be >= 1, got 0"),
            ({"fault_profile": "bogus"}, "unknown fault profile 'bogus'"),
            ({"crash_profile": "bogus"}, "unknown crash profile 'bogus'"),
            ({"crash_profile": "scan@soon"}, "bad crash schedule entry 'scan@soon'"),
            ({"crash_profile": "@2"}, "bad crash schedule entry '@2'"),
        ],
        ids=[
            "scale-0", "scale-nan", "workers-0", "faults", "crashes", "visit", "label"
        ],
    )
    def test_bad_settings_rejected(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**settings)

    def test_non_integer_workers_variable_rejected(self, clean_env):
        clean_env.setenv("REPRO_WORKERS", "x")
        message = r"\$REPRO_WORKERS must be an integer, got 'x'"
        with pytest.raises(ConfigError, match=message):
            RunConfig.resolve(UNSET)

    def test_crash_schedules_accepted(self):
        assert RunConfig(crash_profile="stage:crawl:enter@1,pmap:shard").crash_profile


class TestCommands:
    """A bad shared setting exits 2 with one usage line, before any work."""

    CASES = [
        (["fig1", "--workers", "0"], {}),
        (["fig1", "--scale", "0"], {}),
        (["fig1", "--fault-profile", "bogus"], {}),
        (["fig1"], {"REPRO_WORKERS": "x"}),
        (["table2", "--scale", "0.05", "--workers", "0"], {}),
        (["table2"], {"REPRO_WORKERS": "x"}),
        (["all", "--fault-profile", "bogus"], {}),
        (["all", "--scale", "-1"], {}),
        (["serve", "--workers", "0", "--no-serve"], {}),
        (["serve", "--crash-profile", "bogus", "--no-serve"], {}),
        (["serve", "--no-serve"], {"REPRO_FAULTS": "bogus"}),
    ]

    @pytest.mark.parametrize(
        "argv, environ", CASES, ids=[" ".join(argv) + str(env) for argv, env in CASES]
    )
    def test_exits_two_before_the_command_runs(
        self, argv, environ, clean_env, capsys
    ):
        for variable, value in environ.items():
            clean_env.setenv(variable, value)
        ran = []
        clean_env.setitem(cli._RUNNERS, argv[0], lambda *args: ran.append(args))
        assert main(argv) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--epochs", "--sweep-hours"])
    def test_serve_checks_its_own_settings(self, flag, tmp_path, clean_env, capsys):
        argv = ["serve", flag, "0", "--no-serve", "--store", str(tmp_path / "st")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"repro serve: error: {flag} must be >= 1, got 0\n"
        assert not (tmp_path / "st").exists()

    def test_commands_keep_their_own_fallbacks(self, clean_env):
        parser = cli.build_parser()
        crashtest = cli._run_config(parser.parse_args(["crashtest"]))
        serve = cli._run_config(parser.parse_args(["serve"]))
        fig1 = cli._run_config(parser.parse_args(["fig1"]))
        assert (crashtest.crash_profile, crashtest.store_dir) == (
            "moderate",
            ".repro-crashtest-store",
        )
        assert (serve.crash_profile, serve.store_dir) == (
            "none",
            ".repro-service-store",
        )
        assert (fig1.crash_profile, fig1.store_dir, fig1.scale) == ("none", None, 0.1)

    def test_fig3_ignores_the_store_variable(self, clean_env):
        clean_env.setenv("REPRO_STORE", "env-store")
        args = cli.build_parser().parse_args(["fig3", "--seed", "7"])
        assert cli._run_config(args) == RunConfig(seed=7)
