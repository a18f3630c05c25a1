"""Command-line interface: regenerate any of the paper's artifacts.

::

    python -m repro fig1   --scale 0.1
    python -m repro table1 --scale 0.1 --seed 3
    python -m repro fig2   --scale 0.1
    python -m repro table2 --scale 0.05 --sweep-hours 6
    python -m repro fig3   --clients 2000 --guards 12
    python -m repro sec7   --scale 0.3
    python -m repro harvest --scale 0.05 --ips 20
    python -m repro chaos  --scale 0.02 --rates 0,0.05,0.1
    python -m repro all    --scale 0.05 --fault-profile moderate
    python -m repro obs    --scale 0.02 --fault-profile moderate
    python -m repro all    --scale 0.05 --store .repro-store
    python -m repro store ls --store .repro-store
    python -m repro crashtest --scale 0.02 --crash-profile moderate

Each run option is declared once (:data:`_RUN_OPTIONS`), and every
command builds one :class:`~repro.runconfig.RunConfig` from the options
it takes before any work starts: a flag, else its ``$REPRO_*`` variable,
else the command's own fallback.  An invalid setting exits 2 with one
``repro <cmd>: error: ...`` line.

``--json PATH`` archives the paper-vs-measured report, encoded by
:mod:`repro.codec`.
``--metrics-out PATH`` (or ``$REPRO_METRICS``) additionally archives the
run's deterministic metrics/span snapshot (see :mod:`repro.obs`).
``--store DIR`` (or ``$REPRO_STORE``) checkpoints stage artifacts through
:mod:`repro.store`; a warm re-run replays every cached stage and emits
byte-identical reports.
``fig1``, ``table1`` and ``fig2`` print the sections ``repro all`` prints
for the same world.
Scale 1.0 is the paper's full size; small scales run in seconds.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import sys
import time
from typing import List, Optional

from repro import codec
from repro import io as repro_io
from repro.analysis.report import ExperimentReport
from repro.errors import ConfigError
from repro.runconfig import RunConfig


#: The options commands share, declared once: ``--json`` and every option
#: a run setting comes from.  A command takes the subset it uses through
#: :func:`_add_run_options`, and :func:`_run_config` reads the settings
#: into one :class:`RunConfig`.
_RUN_OPTIONS = {
    "seed": dict(type=int, default=0, help="master RNG seed"),
    "scale": dict(type=float, help="world scale (1.0 = the paper's 39,824 onions)"),
    "json": dict(metavar="PATH", default=None, help="archive the report as JSON"),
    "workers": dict(
        type=int,
        default=None,
        metavar="N",
        help=(
            "deterministic parallel workers (default: $REPRO_WORKERS, then 1; "
            "any value produces byte-identical output)"
        ),
    ),
    "fault_profile": dict(
        default=None,
        metavar="NAME",
        help=(
            "fault-injection profile: none, light, moderate, heavy "
            "(default: $REPRO_FAULTS, then none; deterministic at any "
            "worker count)"
        ),
    ),
    "metrics_out": dict(
        default=None,
        metavar="PATH",
        help=(
            "write the run's metrics/span snapshot here (default: "
            "$REPRO_METRICS, then off; .json extension selects JSON, "
            "anything else the Prometheus-style text rendering)"
        ),
    ),
    "store": dict(
        default=None,
        metavar="DIR",
        help=(
            "checkpoint stage artifacts in this store directory (default: "
            "$REPRO_STORE, then off; warm re-runs skip cached stages and "
            "emit byte-identical reports)"
        ),
    ),
    "crash_profile": dict(
        default=None,
        metavar="NAME",
        help=(
            "crash schedule: none, light, moderate, heavy, or an explicit "
            "label@visit,label@visit schedule (default: $REPRO_CRASHES, "
            "then moderate)"
        ),
    ),
}

#: The options most experiment commands take.
_COMMON = ("seed", "scale", "json", "workers")
#: ... and those of a command that runs the scan/crawl/classify campaign.
_CAMPAIGN = _COMMON + ("fault_profile", "metrics_out")

#: :class:`RunConfig` field -> the option it is read from.
_RUN_FIELDS = {
    "seed": "seed",
    "scale": "scale",
    "workers": "workers",
    "fault_profile": "fault_profile",
    "store_dir": "store",
    "metrics_path": "metrics_out",
    "crash_profile": "crash_profile",
}

#: A command's own fallbacks for an unset setting, after the environment.
_FALLBACKS = {
    "crashtest": {"crash_profile": "moderate"},
    "serve": {"store_dir": ".repro-service-store"},
}


def _add_run_options(
    parser: argparse.ArgumentParser,
    names,
    scale: Optional[float] = None,
    **overrides: dict,
) -> None:
    """Add the run options ``names``, ``--scale`` defaulting to ``scale``.

    ``overrides`` maps an option name to keywords that replace its
    declared ones (a command's own default or help text).
    """
    for name in names:
        keywords = {**_RUN_OPTIONS[name], **overrides.get(name, {})}
        if name == "scale":
            keywords["default"] = scale
        parser.add_argument("--" + name.replace("_", "-"), **keywords)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The command's run settings: its flags, then the environment, then
    its own fallbacks.  A setting the command has no flag for keeps the
    :class:`RunConfig` default."""
    flags = vars(args)
    settings = {
        name: flags[option] for name, option in _RUN_FIELDS.items() if option in flags
    }
    return RunConfig.resolve(settings, _FALLBACKS.get(args.command))


#: Each command's own count options, which must be >= 1.  ``repro serve``'s
#: ``--epochs`` and ``--sweep-hours`` are checked by its EpochController.
_COUNT_OPTIONS = {
    "table2": ("sweep_hours", "rotation_hours", "relays_per_ip"),
    "fig3": ("relays", "guards", "clients", "days"),
    "sec6": ("relays", "guards", "buyers", "sellers", "days"),
    "harvest": ("ips", "relays_per_ip", "sweep_hours"),
    "serve": ("http_workers",),
}


def _fault_rates(text: str) -> List[float]:
    """``--rates``: comma-separated fault rates, each in [0, 1]."""
    try:
        rates = [float(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigError(f"--rates must be comma-separated floats: {exc}") from exc
    if not rates:
        raise ConfigError("--rates must name at least one rate")
    for rate in rates:
        if not 0 <= rate <= 1:
            raise ConfigError(f"--rates must be in [0, 1], got {rate}")
    return rates


def _check_options(args: argparse.Namespace) -> None:
    """Reject a command's own out-of-range options, as :class:`RunConfig`
    rejects the shared settings: before the command does any work."""
    for option in _COUNT_OPTIONS.get(args.command, ()):
        value = getattr(args, option)
        if value < 1:
            flag = "--" + option.replace("_", "-")
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if args.command == "serve" and not 0 <= args.port <= 65535:
        raise ConfigError(f"--port must be in [0, 65535], got {args.port}")
    if args.command == "table2" and not 0 < args.thinning <= 1:
        raise ConfigError(f"--thinning must be in (0, 1], got {args.thinning}")
    if args.command == "chaos":
        _fault_rates(args.rates)


def _fail(command: str, message: object) -> int:
    """Report a usage error the way argparse does, and give its exit code."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _open_store(config: RunConfig):
    """The run's ArtifactStore, or None when it has no store directory."""
    if config.store_dir is None:
        return None
    from repro.store.checkpoint import ArtifactStore

    return ArtifactStore(config.store_dir)


def _write_metrics(observer, config: RunConfig) -> None:
    """Write the observer snapshot when the run has a metrics path."""
    if config.metrics_path is None:
        return
    from repro.obs.export import write_snapshot

    write_snapshot(observer, config.metrics_path)
    print(f"[metrics snapshot written to {config.metrics_path}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Content and popularity analysis of Tor hidden "
            "services' (ICDCS 2014): regenerate any table or figure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("fig1", "Fig 1: open-ports distribution + TLS findings"),
        ("table1", "Table I: HTTP(S)-connectable destinations"),
        ("fig2", "Fig 2: topic distribution + language statistics"),
    ):
        command = sub.add_parser(name, help=text)
        _add_run_options(command, _CAMPAIGN + ("store",), scale=0.1)

    table2 = sub.add_parser("table2", help="Table II: popularity ranking")
    _add_run_options(table2, _COMMON + ("store",), scale=0.05)
    table2.add_argument("--sweep-hours", type=int, default=6)
    table2.add_argument("--rotation-hours", type=int, default=1)
    table2.add_argument("--relays-per-ip", type=int, default=16)
    table2.add_argument("--thinning", type=float, default=1.0)
    table2.add_argument("--top", type=int, default=30, help="ranking rows to print")

    fig3 = sub.add_parser("fig3", help="Fig 3: client deanonymisation geomap")
    _add_run_options(fig3, ("seed", "json"))
    fig3.add_argument("--relays", type=int, default=400)
    fig3.add_argument("--guards", type=int, default=12)
    fig3.add_argument("--clients", type=int, default=1500)
    fig3.add_argument("--days", type=int, default=2)

    sec6 = sub.add_parser("sec6", help="§VI: Silk Road seller identification")
    _add_run_options(sec6, ("seed", "json"))
    sec6.add_argument("--relays", type=int, default=400)
    sec6.add_argument("--guards", type=int, default=14)
    sec6.add_argument("--buyers", type=int, default=800)
    sec6.add_argument("--sellers", type=int, default=40)
    sec6.add_argument("--days", type=int, default=7)

    sec7 = sub.add_parser("sec7", help="§VII: Silk Road tracking detection")
    _add_run_options(sec7, _COMMON + ("store",), scale=0.25)

    harvest = sub.add_parser("harvest", help="shadow-relay harvest validation")
    _add_run_options(harvest, _COMMON + ("store",), scale=0.05)
    harvest.add_argument("--ips", type=int, default=20)
    harvest.add_argument("--relays-per-ip", type=int, default=16)
    harvest.add_argument("--sweep-hours", type=int, default=10)

    everything = sub.add_parser("all", help="run every experiment (small scale)")
    _add_run_options(everything, _CAMPAIGN + ("store",), scale=0.05)

    store = sub.add_parser(
        "store",
        help="inspect or maintain an artifact store (ls, gc, verify)",
        description=(
            "Operate on a repro.store directory: 'ls' renders the run "
            "ledger and indexed artifacts, 'gc' deletes objects no index "
            "entry references, 'verify' re-hashes every object and exits 1 "
            "on corruption."
        ),
    )
    store.add_argument("action", choices=("ls", "gc", "verify"))
    store.add_argument(
        "--keep-epochs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "gc only: ledger-aware retention — keep the newest N ledgered "
            "runs' artifacts (a service epoch ledgers as one run), unindex "
            "everything older, then sweep unreferenced objects"
        ),
    )
    _add_run_options(store, ("store",))

    obs = sub.add_parser(
        "obs",
        help="run the small pipeline and print its metrics/span snapshot",
        description=(
            "Runs scan -> certificates -> crawl -> classify at the given "
            "scale and prints the deterministic observability snapshot "
            "(byte-identical at every --workers value)."
        ),
    )
    _add_run_options(
        obs,
        ("seed", "scale", "workers", "fault_profile", "metrics_out"),
        scale=0.02,
    )
    obs.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="snapshot rendering printed to stdout",
    )

    chaos = sub.add_parser(
        "chaos",
        help="chaos sweep: headline counts vs fault rate, ± retries",
    )
    _add_run_options(chaos, _COMMON, scale=0.02)
    chaos.add_argument(
        "--rates",
        default="0,0.02,0.05,0.1,0.2",
        metavar="R1,R2,...",
        help="comma-separated fault rates to sweep",
    )
    chaos.add_argument("--scan-days", type=int, default=8)

    crashtest = sub.add_parser(
        "crashtest",
        help="prove crash-resume equivalence under an injected crash schedule",
        description=(
            "Runs the scan->certificates->crawl->classify campaign under "
            "the EpochSupervisor with deterministic process-death injection "
            "(repro.supervise), resuming each restart through store "
            "checkpoints, then runs the same campaign cold with no store "
            "and no crashes, and asserts the fig1/table1/fig2 reports are "
            "byte-identical.  Exits 1 on any byte difference, a degraded "
            "run, or fewer than --min-crashes injected deaths."
        ),
    )
    _add_run_options(
        crashtest,
        _CAMPAIGN + ("crash_profile", "store"),
        scale=0.02,
        store=dict(
            default=".repro-crashtest-store",
            help=(
                "scratch checkpoint store for the supervised run; wiped at the "
                "start of every invocation so each crashtest starts cold (a "
                "directory holding anything but a store is refused, exit 2)"
            ),
        ),
    )
    crashtest.add_argument(
        "--clean-json",
        default=None,
        metavar="PATH",
        help="archive the clean cold run's combined report document here",
    )
    crashtest.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="archive the run's completeness manifest here",
    )
    crashtest.add_argument(
        "--min-crashes",
        type=int,
        default=5,
        metavar="N",
        help=(
            "require at least N injected crashes, at N distinct crash "
            "points, for the test to count (default: 5)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="measurement-as-a-service: run epochs, then serve the query API",
        description=(
            "Runs --epochs supervised harvest->scan->certificates->crawl->"
            "classify->popularity epochs against a deterministically "
            "evolving world, checkpointing every stage through the store "
            "(epoch-pinned ledger runs, warm resume after crashes), then "
            "serves the per-epoch query views — rankings, port histograms, "
            "topic breakdowns, dossiers, deltas — over HTTP/JSON with "
            "digest ETags and conditional 304s."
        ),
    )
    _add_run_options(
        serve,
        _CAMPAIGN + ("crash_profile", "store"),
        scale=0.05,
        crash_profile=dict(
            help=(
                "per-epoch crash schedule: none, light, moderate, heavy, or an "
                "explicit label@visit,... schedule (default: $REPRO_CRASHES, "
                "then none); epochs warm-resume through the store after every "
                "injected death"
            )
        ),
        store=dict(
            help=(
                "epoch checkpoint store (default: $REPRO_STORE, then "
                ".repro-service-store); a warm store replays finished epochs "
                "instead of recomputing them"
            )
        ),
    )
    serve.add_argument(
        "--epochs",
        type=int,
        default=3,
        metavar="N",
        help="measurement epochs to compute before serving (default: 3)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        metavar="PORT",
        help="HTTP port to bind (default: 8750)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--http-workers",
        type=int,
        default=8,
        metavar="N",
        help="bound on concurrently handled HTTP requests (default: 8)",
    )
    serve.add_argument(
        "--sweep-hours",
        type=int,
        default=12,
        metavar="H",
        help="harvest/popularity sweep length per epoch (default: 12)",
    )
    serve.add_argument(
        "--no-serve",
        action="store_true",
        help="compute the epochs and exit without binding the port",
    )

    return parser


def _emit(report: ExperimentReport, extra: str = "", json_path: Optional[str] = None) -> None:
    print(report.format())
    if extra:
        print()
        print(extra)
    if json_path:
        repro_io.save_json(codec.encode(report), json_path)
        print(f"\n[report archived to {json_path}]")


#: fig1, table1 and fig2: the module and runner of each, and the method
#: rendering its figure or table.
_CAMPAIGN_RUNNERS = {
    "fig1": ("repro.experiments.fig1_ports", "run_fig1", "format_figure"),
    "table1": ("repro.experiments.table1_http", "run_table1", "format_table"),
    "fig2": ("repro.experiments.fig2_topics", "run_fig2", "format_figure"),
}


def _campaign_result(name: str, pipeline):
    """``name``'s result off ``pipeline``, the campaign every one reads."""
    module, runner, _ = _CAMPAIGN_RUNNERS[name]
    return getattr(importlib.import_module(module), runner)(pipeline)


def _run_campaign(args, config: RunConfig) -> ExperimentReport:
    """``repro fig1``, ``table1`` or ``fig2``: the section ``repro all``
    prints for the same world, plus the figure or table."""
    from repro.experiments.pipeline import MeasurementPipeline

    pipeline = MeasurementPipeline.for_run(config, store=_open_store(config))
    result = _campaign_result(args.command, pipeline)
    render = getattr(result, _CAMPAIGN_RUNNERS[args.command][2])
    _emit(result.report, render(), args.json)
    _write_metrics(pipeline.observer, config)
    return result.report


def _run_chaos(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.chaos_sweep import run_chaos_sweep

    result = run_chaos_sweep(
        seed=config.seed,
        scale=config.scale,
        fault_rates=_fault_rates(args.rates),
        workers=config.workers,
        scan_days=args.scan_days,
    )
    _emit(result.report, result.format_table(), args.json)
    return result.report


def _run_table2(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.table2_popularity import run_table2

    result = run_table2(
        seed=config.seed,
        scale=config.scale,
        sweep_hours=args.sweep_hours,
        rotation_interval_hours=args.rotation_hours,
        relays_per_ip=args.relays_per_ip,
        thinning=args.thinning,
        workers=config.workers,
        store=_open_store(config),
    )
    _emit(result.report, result.ranking.format_table(limit=args.top), args.json)
    return result.report


def _run_fig3(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.fig3_geomap import run_fig3

    result = run_fig3(
        seed=config.seed,
        honest_relays=args.relays,
        attacker_guards=args.guards,
        client_count=args.clients,
        observation_days=args.days,
    )
    _emit(result.report, result.format_map(), args.json)
    return result.report


def _run_sec6(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.sec6_sellers import run_sec6

    result = run_sec6(
        seed=config.seed,
        honest_relays=args.relays,
        attacker_guards=args.guards,
        buyer_count=args.buyers,
        seller_count=args.sellers,
        observation_days=args.days,
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_sec7(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.sec7_tracking import run_sec7

    result = run_sec7(
        seed=config.seed, scale=config.scale, store=_open_store(config)
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_harvest(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.harvest import run_harvest

    result = run_harvest(
        seed=config.seed,
        scale=config.scale,
        ip_count=args.ips,
        relays_per_ip=args.relays_per_ip,
        sweep_hours=args.sweep_hours,
        store=_open_store(config),
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_all(args, config: RunConfig) -> ExperimentReport:
    from repro.experiments.fig3_geomap import run_fig3
    from repro.experiments.harvest import run_harvest
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.experiments.sec7_tracking import run_sec7
    from repro.experiments.table2_popularity import run_table2

    # One store serves the whole run: the pipeline stages and the
    # table2/fig3/sec7/harvest experiments all checkpoint into it, so a
    # warm re-run replays every stage and simulates nothing.
    # One world serves it too: table2 and harvest share the pipeline's
    # on-demand world, which is generated only if a stage misses, with
    # the run's scale passed on so it stays authoritative.
    store = _open_store(config)
    pipeline = MeasurementPipeline.for_run(config, store=store)
    summary = ExperimentReport(experiment="all-experiments")
    stages = [
        (name, functools.partial(_campaign_result, name, pipeline))
        for name in _CAMPAIGN_RUNNERS
    ] + [
        (
            "table2",
            lambda: run_table2(
                seed=config.seed,
                scale=config.scale,
                population=pipeline.world,
                sweep_hours=6,
                rotation_interval_hours=1,
                relays_per_ip=16,
                workers=config.workers,
                store=store,
            ),
        ),
        (
            "fig3",
            lambda: run_fig3(
                seed=config.seed, honest_relays=300, client_count=800, store=store
            ),
        ),
        (
            "sec7",
            lambda: run_sec7(
                seed=config.seed, scale=max(0.1, config.scale * 4), store=store
            ),
        ),
        (
            "harvest",
            lambda: run_harvest(
                seed=config.seed,
                scale=config.scale,
                population=pipeline.world,
                ip_count=16,
                relays_per_ip=16,
                store=store,
            ),
        ),
    ]
    for name, runner in stages:
        # Monotonic, not wall-clock (REP003): this measures elapsed runtime
        # only and must never feed simulated time.
        started = time.perf_counter()
        # Keep only the report: a result can hold a stage's whole state
        # (table2's resolution, harvest's trawl), which the next stage
        # must not run beside.
        report = runner().report
        elapsed = time.perf_counter() - started
        print(report.format())
        print(f"[{name} done in {elapsed:.1f}s]\n")
        summary.add(f"{name} max rel. error", None, round(report.max_error(), 3))
    _emit(summary, json_path=args.json)
    _write_metrics(pipeline.observer, config)
    return summary


def _run_obs(args, config: RunConfig) -> int:
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs.export import render_json, render_text

    pipeline = MeasurementPipeline.for_run(config)
    pipeline.scan()
    pipeline.certificates()
    pipeline.crawl()
    pipeline.classify()
    if args.format == "json":
        print(render_json(pipeline.observer))
    else:
        print(render_text(pipeline.observer))
    _write_metrics(pipeline.observer, config)
    return 0


def _run_store(args, config: RunConfig) -> int:
    from repro.store.admin import gc, ls_lines, verify

    store = _open_store(config)
    if store is None:
        return _fail("store", "no store configured (use --store DIR or $REPRO_STORE)")
    if args.action == "ls":
        for line in ls_lines(store):
            print(line)
        return 0
    if args.action == "gc":
        if args.keep_epochs is not None:
            from repro.errors import StoreError
            from repro.store.admin import retain_recent_runs

            try:
                unindexed, removed, freed = retain_recent_runs(
                    store, args.keep_epochs
                )
            except StoreError as exc:
                return _fail("store", exc)
            print(
                f"[gc: retired {unindexed} index entr(ies), removed "
                f"{removed} object(s), freed {freed} bytes; kept newest "
                f"{args.keep_epochs} run(s)]"
            )
            return 0
        removed, freed = gc(store)
        print(f"[gc: removed {removed} object(s), freed {freed} bytes]")
        return 0
    problems = verify(store)
    for problem in problems:
        print(problem)
    print(f"[verify: {len(problems)} problem(s)]")
    return 0 if not problems else 1


def _campaign_document(pipeline) -> dict:
    """The fig1/table1/fig2 reports of a completed pipeline, as one dict.

    Every stage is already computed (or supervised to completion), so the
    experiment runners only read; this is the document the crashtest
    byte-compares between the crashed-and-resumed run and the clean one.
    """
    return {
        name: codec.encode(_campaign_result(name, pipeline).report)
        for name in _CAMPAIGN_RUNNERS
    }


def _run_crashtest(args, config: RunConfig) -> int:
    import json
    import pathlib
    import shutil

    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs.scope import Observer
    from repro.store.checkpoint import ArtifactStore
    from repro.supervise.crashplan import PIPELINE_STAGES, build_crash_plan
    from repro.supervise.supervisor import EpochSupervisor

    # The crash schedule falls back to moderate: an inert plan would make
    # the whole exercise vacuous.
    plan = build_crash_plan(config.crash_profile, seed=config.seed)

    store_root = pathlib.Path(config.store_dir)
    if store_root.exists():
        # The scratch store is this command's own working directory (see
        # --store help); a stale warm store would replay every stage and
        # dodge the commit-point crashes the test exists to inject.  Wipe
        # it only if it holds nothing but an ArtifactStore's layout, so a
        # mistyped --store never deletes someone's files.
        foreign = (
            sorted(
                entry.name
                for entry in store_root.iterdir()
                if entry.name not in ("objects", "index", "ledger.jsonl")
            )
            if store_root.is_dir()
            else [store_root.name]
        )
        if foreign:
            return _fail(
                "crashtest",
                f"--store {store_root} is not a checkpoint store (it holds "
                f"{', '.join(foreign)}); refusing to wipe it",
            )
        shutil.rmtree(store_root)

    supervisor_observer = Observer(name="crashtest")
    supervisor = EpochSupervisor(plan, observer=supervisor_observer)

    def factory(crash_points, quarantine):
        # A fresh pipeline AND a fresh store handle per incarnation — a
        # real crash loses all process state; only the store directory
        # survives, exactly as here.
        return MeasurementPipeline.for_run(
            config,
            store=ArtifactStore(store_root),
            crash_point=crash_points,
            quarantine=quarantine,
        )

    outcome = supervisor.run(factory, stages=PIPELINE_STAGES)
    manifest = outcome.manifest

    failures: List[str] = []
    crash_count = outcome.crash_points.crash_count
    distinct = outcome.crash_points.distinct_points()
    if crash_count < args.min_crashes:
        failures.append(
            f"only {crash_count} crash(es) fired, need >= {args.min_crashes}"
        )
    if len(distinct) < args.min_crashes:
        failures.append(
            f"only {len(distinct)} distinct crash point(s) hit "
            f"({', '.join(distinct)}), need >= {args.min_crashes}"
        )

    crashed_doc = None
    equal = False
    if manifest.complete:
        crashed_doc = _campaign_document(outcome.pipeline)
        clean_pipeline = MeasurementPipeline.for_run(config)
        for stage in PIPELINE_STAGES:
            getattr(clean_pipeline, stage)()
        clean_doc = _campaign_document(clean_pipeline)
        crashed_text = json.dumps(crashed_doc, indent=2, sort_keys=True)
        clean_text = json.dumps(clean_doc, indent=2, sort_keys=True)
        equal = crashed_text == clean_text
        if not equal:
            failures.append(
                "crashed-and-resumed reports are NOT byte-identical to the "
                "clean cold run"
            )
        if args.json:
            repro_io.save_json(crashed_doc, args.json)
            print(f"[supervised-run reports archived to {args.json}]")
        if args.clean_json:
            repro_io.save_json(clean_doc, args.clean_json)
            print(f"[clean-run reports archived to {args.clean_json}]")
    else:
        failures.append(
            "supervised run did not complete: " + "; ".join(manifest.summary_lines())
        )

    if args.manifest_out:
        repro_io.save_json(codec.encode(manifest), args.manifest_out)
        print(f"[completeness manifest archived to {args.manifest_out}]")

    summary = ExperimentReport(experiment="crashtest")
    summary.add("crashes injected", None, crash_count)
    summary.add("distinct crash points", None, len(distinct))
    summary.add("restarts used", None, manifest.restarts_used)
    summary.add("backoff sim-seconds", None, manifest.backoff_sim_seconds)
    summary.add("stages complete", None, len(manifest.completed_stages()))
    summary.add("reports byte-identical", None, int(equal))
    summary.note(
        f"crash plan '{plan.name}': "
        + (", ".join(f"{r.point}@{r.visit}" for r in plan.rules) or "(inert)")
    )
    if distinct:
        summary.note("crash points hit: " + ", ".join(distinct))
    summary.add_completeness(manifest)
    _emit(summary)
    _write_metrics(supervisor_observer, config)

    for failure in failures:
        print(f"crashtest: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"crashtest: OK — survived {crash_count} crash(es) at "
            f"{len(distinct)} distinct point(s); reports byte-identical"
        )
    return 1 if failures else 0


def _run_serve(args, config: RunConfig) -> int:
    from repro.service.api import ServiceRouter
    from repro.service.controller import EpochController
    from repro.service.http import bind
    from repro.service.schema import SCHEMA_VERSION

    try:
        controller = EpochController(
            config, epochs=args.epochs, sweep_hours=args.sweep_hours
        )
    except ConfigError as exc:
        return _fail("serve", exc)

    # The router reads the controller's append-only record list.  The port
    # is bound before the epochs, so one in use fails at once, not after
    # them; connects are refused until the listen that follows them.
    router = ServiceRouter(controller.records, controller.observer)
    server = None
    if not args.no_serve:
        try:
            server = bind(
                router, host=args.host, port=args.port, workers=args.http_workers
            )
        except OSError as exc:
            return _fail("serve", _socket_error(args, exc))
    try:
        records = controller.run()
        for record in records:
            print(
                f"[epoch {record.epoch}: run={record.run_id} "
                f"crashes={record.crashes} restarts={record.restarts} "
                f"sim_seconds={record.sim_seconds}]"
            )
        if args.json:
            repro_io.save_json(
                {
                    "schema": SCHEMA_VERSION,
                    "kind": "epochs",
                    "epochs": [record.summary() for record in records],
                },
                args.json,
            )
            print(f"[epoch listing archived to {args.json}]")
        # Snapshot before listening: the epochs are the deterministic part,
        # and a daemon killed by signal (the normal way this command ends)
        # would otherwise never write one.
        _write_metrics(controller.observer, config)

        if server is None:
            print(f"[{len(records)} epoch(s) computed; store: {config.store_dir}]")
            return 0
        try:
            server.server_activate()
        except OSError as exc:
            return _fail("serve", _socket_error(args, exc))
        print(
            f"[serving on http://{args.host}:{server.server_address[1]} — "
            f"{len(records)} epoch(s) ready]",
            flush=True,
        )
        server.serve_forever()
    finally:
        if server is not None:
            server.server_close()
    return 0


def _socket_error(args, exc: OSError) -> str:
    """One line for a failed bind or listen on ``--host``/``--port``."""
    return f"cannot serve on {args.host}:{args.port}: {exc.strerror or exc}"


_RUNNERS = {
    "fig1": _run_campaign,
    "table1": _run_campaign,
    "fig2": _run_campaign,
    "chaos": _run_chaos,
    "table2": _run_table2,
    "fig3": _run_fig3,
    "sec6": _run_sec6,
    "sec7": _run_sec7,
    "harvest": _run_harvest,
    "all": _run_all,
    "obs": _run_obs,
    "store": _run_store,
    "crashtest": _run_crashtest,
    "serve": _run_serve,
}


#: The cyclic collector's generation-0 threshold while a command runs
#: (CPython's default is 700).  The simulator allocates many long-lived
#: objects and almost no reference cycles: at the default a cold ``repro
#: all --scale 0.05`` runs ~1,060 collections that take an eighth of its
#: time and reclaim ~1,250 objects; at 50,000 it runs 7.  Collection still
#: runs, so ``repro serve`` stays bounded, and no output depends on when
#: it runs (DESIGN.md §6.1).
GC_GEN0_THRESHOLD = 50_000


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Runs the command under :data:`GC_GEN0_THRESHOLD` and restores the
    caller's collector thresholds on the way out, so an in-process caller
    sees no lasting change.
    """
    args = build_parser().parse_args(argv)
    try:
        config = _run_config(args)
        _check_options(args)
    except ConfigError as exc:
        return _fail(args.command, exc)
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
    try:
        result = _RUNNERS[args.command](args, config)
    finally:
        gc.set_threshold(*thresholds)
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
