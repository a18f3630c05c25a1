"""Small-world experiment artifacts used by goldens and equivalence tests.

A builder that takes a ``workers`` argument must return **byte-identical
text for any value of it** — that is the contract ``repro.parallel.pmap``
provides and the one thing these cases exist to pin down.  The golden files
in this directory are the ``workers=1`` renderings; ``regenerate.py``
rewrites them after an intentional behaviour change.

Keep the worlds tiny: these run inside tier-1.
"""

from __future__ import annotations

import re
from typing import Optional

# Small-world parameters shared by the goldens and the serial≡parallel
# equivalence tests, so the two suites cross-check the same artifacts.
PIPELINE_SEED = 11
PIPELINE_SCALE = 0.02
#: Named profile pinned by the faulted golden/equivalence cases.
FAULTED_PROFILE = "moderate"
TABLE2_SEED = 2
TABLE2_SCALE = 0.02
TABLE2_SWEEP_HOURS = 4
SEC7_SEED = 6
SEC7_SCALE = 0.1
HARVEST_SEED = 4
HARVEST_SCALE = 0.02
HARVEST_IPS = 8
HARVEST_RELAYS_PER_IP = 8
HARVEST_SWEEP_HOURS = 4
FIG3_SEED = 4
FIG3_RELAYS = 250
FIG3_CLIENTS = 700
FIG3_DAYS = 2
SEC6_SEED = 2
SEC6_RELAYS = 250
SEC6_BUYERS = 300
SEC6_SELLERS = 25
SEC6_DAYS = 7
VIEWS_SEED = 11
VIEWS_SCALE = 0.02
VIEWS_SWEEP_HOURS = 4
ALL_SEED = 3
ALL_SCALE = 0.02
#: The benchmark's ``cold_large`` world: the one golden at a scale where
#: the hour-to-hour consensus and ring diffs churn a ~131-member ring.
ALL_LARGE_SEED = 15
ALL_LARGE_SCALE = 0.05

#: ``repro all`` lines that vary run to run: stage wall times and the
#: archive path of the ``--json`` summary.
_UNPINNED_LINE = re.compile(r"^\[(\w+ done in [0-9.]+s|report archived to .*)\]$")


def pipeline_artifacts(
    workers: Optional[int] = None, fault_profile: str = "none"
) -> dict:
    """Fig 1 and Fig 2 artifact text off one shared scan/crawl/classify run.

    The profile is pinned explicitly (never read from ``REPRO_FAULTS``) so
    the goldens mean the same bytes no matter what environment CI exports.
    """
    from repro.experiments.fig1_ports import run_fig1
    from repro.experiments.fig2_topics import run_fig2
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs import render_text

    pipeline = MeasurementPipeline(
        seed=PIPELINE_SEED,
        scale=PIPELINE_SCALE,
        workers=workers,
        fault_profile=fault_profile,
    )
    fig1 = run_fig1(pipeline=pipeline)
    fig2 = run_fig2(pipeline=pipeline)
    return {
        "fig1_small": fig1.report.format() + "\n\n" + fig1.format_figure(),
        "fig2_small": fig2.report.format() + "\n\n" + fig2.format_figure(),
        # The full observability snapshot of the shared run: counters,
        # gauges, histograms, spans and events, rendered canonically.
        # Pinning it as a golden makes the snapshot itself subject to the
        # byte-identical-at-any-worker-count contract.
        "metrics_small": render_text(pipeline.observer),
    }


def faulted_pipeline_artifacts(workers: Optional[int] = None) -> dict:
    """The same artifacts with the ``moderate`` fault profile and retries on."""
    return pipeline_artifacts(workers=workers, fault_profile=FAULTED_PROFILE)


def table2_artifact(workers: Optional[int] = None) -> str:
    """Table II report + ranking text for the tiny sweep."""
    from repro.experiments.table2_popularity import run_table2

    result = run_table2(
        seed=TABLE2_SEED,
        scale=TABLE2_SCALE,
        sweep_hours=TABLE2_SWEEP_HOURS,
        rotation_interval_hours=1,
        relays_per_ip=16,
        workers=workers,
    )
    return result.report.format() + "\n\n" + result.ranking.format_table(limit=20)


def table2_detail_artifact() -> str:
    """What the tiny Table II sweep computes beyond its ranking table.

    Every traffic-shape label (the attacker fleet's request logs are read
    for nothing else), every onion's normalised request rate (the
    validity-driven normalisation past the top 20), and the resolution's
    ID counts plus a digest of its ID → onion map.
    """
    import hashlib

    from repro.experiments.table2_popularity import run_table2

    result = run_table2(
        seed=TABLE2_SEED,
        scale=TABLE2_SCALE,
        sweep_hours=TABLE2_SWEEP_HOURS,
        rotation_interval_hours=1,
        relays_per_ip=16,
        workers=1,
    )
    resolution = result.resolution
    lines = [
        f"onion label {onion} {label}"
        for onion, label in sorted(result.shape_labels.items())
    ]
    lines += [
        f"onion requests {onion} {count}"
        for onion, count in sorted(resolution.requests_per_onion.items())
    ]
    id_map = b"\n".join(
        desc_id.hex().encode("ascii") + b" " + onion.encode("ascii")
        for desc_id, onion in sorted(resolution.id_to_onion.items())
    )
    lines += [
        f"resolved_ids {resolution.resolved_ids}",
        f"unresolved_ids {resolution.unresolved_ids}",
        f"id_to_onion sha256 {hashlib.sha256(id_map).hexdigest()}",
    ]
    return "\n".join(lines)


def sec7_artifact() -> str:
    """Section VII report text."""
    from repro.experiments.sec7_tracking import run_sec7

    return run_sec7(seed=SEC7_SEED, scale=SEC7_SCALE).report.format()


#: The Section VII worlds ``sec7_detail_small`` pins: the ``sec7_small``
#: world, and the one ``repro all`` builds for the benchmark's
#: ``cold_large`` workload (seed 15; sec7 runs at 4 x 0.05).
SEC7_DETAIL_WORLDS = ((SEC7_SEED, SEC7_SCALE), (ALL_LARGE_SEED, 0.2))


def sec7_detail_artifact() -> str:
    """Everything Section VII's analyzer computes, per world and window.

    The report only counts convictions; this pins what they rest on:
    each window's periods and mean ring size, every server's nicknames,
    fingerprints, events (ratio by ``repr``; fingerprint and nickname as
    indexes into the server's sorted lists) and flags in report order,
    the likely trackers, the full takeovers and the occupancy labels.
    """
    from repro.experiments.sec7_tracking import YEAR_WINDOWS, run_sec7

    def server(key) -> str:
        return f"{key[0]}:{key[1]}"

    lines = []
    for seed, scale in SEC7_DETAIL_WORLDS:
        result = run_sec7(seed=seed, scale=scale)
        lines.append(f"== world seed={seed} scale={scale}")
        for year, start_text, end_text in YEAR_WINDOWS:
            report = result.yearly_reports[year]
            lines += [
                f"-- {year} {start_text}..{end_text} window={report.window}",
                f"periods_analyzed {report.periods_analyzed}",
                f"mean_hsdir_count {report.mean_hsdir_count!r}",
                f"frequency_threshold {report.frequency_threshold!r}",
            ]
            for key, record in report.servers.items():
                nicknames = sorted(record.nicknames)
                fingerprints = sorted(record.fingerprints_used)
                lines += [
                    f"server {server(key)} flags={','.join(report.flags_for(record))}",
                    f"  nicknames {','.join(nicknames)}",
                    f"  fingerprints {','.join(fp.hex() for fp in fingerprints)}",
                ]
                # period replica fingerprint# nickname# ratio fresh
                lines += [
                    f"  event {e.period_index} {e.replica} "
                    f"{fingerprints.index(e.fingerprint)} {nicknames.index(e.nickname)} "
                    f"{e.ratio!r} {int(e.fresh_fingerprint)}"
                    for e in record.events
                ]
            lines += [
                f"likely {server(key)} {','.join(flags)}"
                for key, flags in report.likely_trackers().items()
            ]
            lines += [
                f"takeover {start} {' '.join(server(key) for key in servers)}"
                for start, servers in report.full_takeovers()
            ]
            lines += [
                f"occupancy {server(key)} {label}"
                for key, label in result.occupancy_labels[year].items()
            ]
    return "\n".join(lines)


def harvest_artifact() -> str:
    """Harvest report plus digests of everything the trawl collected.

    The report only counts onions; the digests pin which onions and which
    descriptor IDs the burned attacker directories held, so drift in
    descriptor placement or consensus admission moves the text.
    """
    import hashlib

    from repro.experiments.harvest import run_harvest

    result = run_harvest(
        seed=HARVEST_SEED,
        scale=HARVEST_SCALE,
        ip_count=HARVEST_IPS,
        relays_per_ip=HARVEST_RELAYS_PER_IP,
        sweep_hours=HARVEST_SWEEP_HOURS,
    )
    harvest = result.harvest

    def digest(items) -> str:
        return hashlib.sha256(b"\n".join(sorted(items))).hexdigest()

    onions = [onion.encode("ascii") for onion in harvest.onions]
    lines = [
        f"descriptors collected: {harvest.descriptors_collected}",
        f"relays harvested: {harvest.relays_harvested}",
        f"onions: {len(onions)} sha256={digest(onions)}",
        f"descriptor ids: {len(harvest.descriptor_ids_seen)} "
        f"sha256={digest(harvest.descriptor_ids_seen)}",
    ]
    return result.report.format() + "\n\n" + "\n".join(lines)


def fig3_artifact() -> str:
    """Fig 3 report plus the geomap, as ``repro fig3`` prints them."""
    from repro.experiments.fig3_geomap import run_fig3

    result = run_fig3(
        seed=FIG3_SEED,
        honest_relays=FIG3_RELAYS,
        client_count=FIG3_CLIENTS,
        observation_days=FIG3_DAYS,
    )
    return result.report.format() + "\n\n" + result.format_map()


def sec6_artifact() -> str:
    """Section VI seller-identification report text."""
    from repro.experiments.sec6_sellers import run_sec6

    result = run_sec6(
        seed=SEC6_SEED,
        honest_relays=SEC6_RELAYS,
        buyer_count=SEC6_BUYERS,
        seller_count=SEC6_SELLERS,
        observation_days=SEC6_DAYS,
    )
    return result.report.format()


def views_artifact() -> str:
    """The five service views of one epoch, built as the controller does.

    Every view is pinned by its content digest (the service's ETag); all
    but the large per-onion dossiers are also spelled out as canonical
    JSON so a drift shows which field moved.
    """
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.experiments.table2_popularity import run_table2
    from repro.service.results import build_views
    from repro.store.cas import canonical_json_bytes, digest_of
    from repro.worldbuild import advance_epoch

    world = advance_epoch(VIEWS_SEED, VIEWS_SCALE, 0)
    pipeline = MeasurementPipeline(
        seed=world.seed, scale=world.scale, workers=1, fault_profile="none"
    )
    table2 = run_table2(
        seed=world.seed,
        population=pipeline.population,
        sweep_hours=VIEWS_SWEEP_HOURS,
        workers=1,
    )
    views = build_views(
        world,
        scan=pipeline.scan(),
        classification=pipeline.classify(),
        table2=table2,
    )
    lines = [f"{kind} sha256={digest_of(view)}" for kind, view in views.items()]
    for kind, view in views.items():
        if kind != "dossiers":
            lines.append(canonical_json_bytes(view).decode("utf-8"))
    return "\n".join(lines)


def serve_wire_artifact() -> str:
    """Every served document's wire bytes, through the in-process client.

    Runs the ``views_small`` world as a two-epoch service (one worker, no
    faults, no crashes) and requests every view of every epoch under its
    numeric and its ``latest`` selector, every onion's dossier, the
    health and epoch listings, a conditional 304 for each of those paths,
    and three errors.  One line per response: ``path status etag
    sha256=… bytes=…`` over the exact body bytes (``-`` for no ETag).
    ``/v1/metrics`` is live and left out.
    """
    import hashlib
    import tempfile

    from repro.service import (
        VIEW_KINDS,
        EpochController,
        InProcessClient,
        ServiceRouter,
    )
    from repro.runconfig import RunConfig

    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(seed=VIEWS_SEED, scale=VIEWS_SCALE, store_dir=tmp)
        records = EpochController(
            config, epochs=2, sweep_hours=VIEWS_SWEEP_HOURS
        ).run()
    client = InProcessClient(ServiceRouter(records))

    def line(path: str, response) -> str:
        digest = hashlib.sha256(response.body).hexdigest()
        return (
            f"{path} {response.status} {response.headers.get('ETag', '-')} "
            f"sha256={digest} bytes={len(response.body)}"
        )

    paths = ["/healthz", "/v1/epochs"]
    for record in records:
        selectors = [str(record.epoch)]
        if record is records[-1]:
            selectors.append("latest")
        for selector in selectors:
            paths += [f"/v1/epochs/{selector}/{kind}" for kind in VIEW_KINDS]
        for onion in sorted(record.views["dossiers"]["body"]["onions"]):
            paths.append(f"/v1/epochs/{record.epoch}/dossier/{onion}")
    lines = []
    for path in paths:
        response = client.get(path)
        lines.append(line(path, response))
        lines.append(line(path, client.get_conditional(path, response.etag)))
    for path in (
        "/v1/epochs/0/dossier/unknownonion0000.onion",
        f"/v1/epochs/{len(records)}/ranking",
    ):
        lines.append(line(path, client.get(path)))
    lines.append(line("POST /v1/epochs", client.router.handle("POST", "/v1/epochs")))
    return "\n".join(lines)


def all_artifact(
    stored: bool, seed: int = ALL_SEED, scale: float = ALL_SCALE
) -> str:
    """``repro all`` as printed, plus its ``--json`` summary.

    Pins how ``repro all`` composes the experiments, which no single
    experiment golden sees.  ``stored`` runs it through a fresh store;
    the two renderings differ (the stored harvest re-derives its scale
    from the population) and both are pinned.  Stage timings and the
    archive path are stripped; workers, fault profile, store and
    metrics output are pinned so the environment cannot reach the text.
    """
    import contextlib
    import io
    import os
    import pathlib
    import tempfile
    from unittest import mock

    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        summary_path = os.path.join(tmp, "all.json")
        argv = [
            "all",
            "--scale", str(scale),
            "--seed", str(seed),
            "--workers", "1",
            "--fault-profile", "none",
            "--json", summary_path,
        ]
        if stored:
            argv += ["--store", os.path.join(tmp, "store")]
        stdout = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout):
            os.environ.pop("REPRO_STORE", None)
            os.environ.pop("REPRO_METRICS", None)
            main(argv)
        summary = pathlib.Path(summary_path).read_text(encoding="utf-8")
    return render_all(stdout.getvalue(), summary)


def render_all(stdout: str, summary: str) -> str:
    """``repro all``'s stdout without its timing and archive lines, then
    its ``--json`` summary."""
    lines = [line for line in stdout.splitlines() if not _UNPINNED_LINE.match(line)]
    return "\n".join(lines).rstrip("\n") + "\n\n" + summary.rstrip("\n")


def store_payloads_artifact() -> str:
    """Digest and size of every artifact encoding one small world stores.

    Runs the ``repro all`` stages that checkpoint (seed 3, scale 0.02, one
    worker, no faults; fig3 last, at ``repro all``'s 300 relays and 800
    clients) through a fresh store and pins the canonical bytes
    of each stage's stored artifact, read back from the store, plus those
    of a report, a ranking, a port distribution and a request time series
    encoded directly.  Content addresses are hashes of these bytes, so
    any drift in an encoder moves a line here.
    """
    import hashlib
    import tempfile

    from repro import codec
    from repro.experiments.fig1_ports import run_fig1
    from repro.experiments.fig3_geomap import run_fig3
    from repro.experiments.harvest import run_harvest
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.experiments.sec7_tracking import run_sec7
    from repro.experiments.table2_popularity import run_table2
    from repro.popularity.timeseries import RequestTimeSeries
    from repro.sim.clock import HOUR
    from repro.store import ArtifactStore
    from repro.store.cas import canonical_json_bytes

    def line(name: str, payload: dict) -> str:
        blob = canonical_json_bytes(payload)
        return f"{name} sha256={hashlib.sha256(blob).hexdigest()} bytes={len(blob)}"

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        pipeline = MeasurementPipeline(
            seed=ALL_SEED,
            scale=ALL_SCALE,
            workers=1,
            fault_profile="none",
            store=store,
        )
        report = run_fig1(pipeline=pipeline).report
        pipeline.crawl()
        pipeline.classify()
        ranking = run_table2(
            seed=ALL_SEED,
            scale=ALL_SCALE,
            population=pipeline.population,
            sweep_hours=6,
            rotation_interval_hours=1,
            relays_per_ip=16,
            workers=1,
            store=store,
        ).ranking
        run_sec7(seed=ALL_SEED, scale=max(0.1, ALL_SCALE * 4), store=store)
        run_harvest(
            seed=ALL_SEED,
            scale=ALL_SCALE,
            population=pipeline.population,
            ip_count=16,
            relays_per_ip=16,
            store=store,
        )
        run_fig3(seed=ALL_SEED, honest_relays=300, client_count=800, store=store)
        lines = [
            line(stage, store.cas.get(digest)["artifact"])
            for stage, digest in store.last_digests.items()
        ]
    series = RequestTimeSeries(
        start=pipeline.population.scan_start,
        bucket_seconds=HOUR,
        counts=[row.requests for row in ranking.top(24)],
    )
    lines += [
        line("report", codec.encode(report)),
        line("ranking", codec.encode(ranking)),
        line("port-distribution", codec.encode(pipeline.scan().port_distribution())),
        line("request-timeseries", codec.encode(series)),
    ]
    return "\n".join(lines)


def models_artifact() -> str:
    """SHA-256 of a canonical dump of both shipped classifiers.

    The dump holds each model's classes, log priors, unseen-token log
    likelihoods and per-token rows, keys sorted and every float written
    with ``float.hex()``, so a one-ulp drift in any trained parameter
    moves the digest.  Classification outputs pin the models only
    indirectly; this pins them exactly.
    """
    import hashlib
    import json

    from repro.classify.training import build_language_detector, build_topic_classifier

    lines = []
    for name, model in (
        ("language", build_language_detector()._model),
        ("topic", build_topic_classifier()._model),
    ):
        dump = {
            "classes": model.classes,
            "log_prior": {k: v.hex() for k, v in model._log_prior.items()},
            "log_unseen": {k: v.hex() for k, v in model._log_unseen.items()},
            "token_rows": {
                token: [value.hex() for value in row]
                for token, row in model._token_rows.items()
            },
        }
        blob = json.dumps(
            dump, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        ).encode("utf-8")
        lines.append(
            f"{name} classes={len(model.classes)} "
            f"vocabulary={model.vocabulary_size} "
            f"sha256={hashlib.sha256(blob).hexdigest()}"
        )
    return "\n".join(lines)


#: One file's worth of every fenced capability, in every spelling the
#: capability-fence lint rules catch: wall-clock reads (REP003), raw
#: concurrency (REP007), ad-hoc print/timing (REP009), raw artifact writes
#: (REP010), teardown interception (REP014) and raw sockets (REP015).
FENCED_SPELLINGS = """\
import asyncio
import concurrent.futures
import datetime
import http.server
import json
import multiprocessing
import multiprocessing.pool
import os, socket
import selectors
import signal
import socketserver
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import date, datetime
from http.client import HTTPConnection
from multiprocessing import Pool
from signal import setitimer, signal as install
from time import perf_counter, perf_counter as tick, time as wall
from wsgiref.simple_server import make_server


def clock():
    return [
        time.time(),
        wall(),
        datetime.now(),
        datetime.utcnow(),
        datetime.today(),
        date.today(),
        datetime.datetime.now(),
        datetime.datetime.utcnow(),
        datetime.datetime.today(),
        datetime.date.today(),
        datetime.time.time(),
    ]


def instrument(count):
    print("scanned", count)
    return [time.perf_counter(), perf_counter(), tick()]


def write(path, data, handle):
    open(path, "w")
    open(path, "ab")
    open(path, mode="x")
    open(path, "r+")
    open(path)
    open(path, "r")
    path.open("w")
    path.open(mode="a")
    path.open()
    path.write_text("x")
    path.write_bytes(b"x")
    json.dump(data, handle)
    return json.dumps(data)


def teardown(step):
    try:
        step()
    except:
        raise
    try:
        step()
    except BaseException:
        raise
    try:
        step()
    except KeyboardInterrupt:
        raise
    try:
        step()
    except SystemExit:
        raise
    try:
        step()
    except SimulatedCrashError:
        raise
    try:
        step()
    except errors.SimulatedCrashError:
        raise
    try:
        step()
    except (ValueError, SystemExit):
        raise
    try:
        step()
    except (SimulatedCrashError, KeyboardInterrupt):
        raise
    signal.signal(signal.SIGINT, step)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    signal.siginterrupt(signal.SIGINT, True)
    signal.set_wakeup_fd(-1)
    install(signal.SIGTERM, step)
    setitimer(signal.ITIMER_REAL, 1.0)
"""

#: Where the fenced spellings go: every place some fence allows, one place
#: none allows (``repro/crawl/``), and ``repro/cli.pyx/``, which holds the
#: file-suffix entry ``repro/cli.py`` only as a path fragment.
FENCE_PLACES = (
    "benchmarks/m.py",
    "examples/m.py",
    "repro/cli.py",
    "repro/cli.pyx/m.py",
    "repro/crawl/m.py",
    "repro/io.py",
    "repro/obs/export.py",
    "repro/obs/m.py",
    "repro/parallel/m.py",
    "repro/service/m.py",
    "repro/store/m.py",
    "repro/supervise/m.py",
    "tests/m.py",
)

FLAG, CLEAN = "flag", "clean"


def _package(files):
    """``files`` plus an empty ``__init__.py`` in every directory they sit
    in, the case directory itself included, so the case is one package."""
    out = dict(files)
    for relative in files:
        parts = relative.split("/")[:-1]
        for depth in range(len(parts) + 1):
            out.setdefault("/".join(parts[:depth] + ["__init__.py"]), "")
    return out


_WALL_CLOCK = (
    "import time\nimport datetime\nfrom datetime import date, datetime\n"
    "stamp = {}\n"
)
_MAY_PRINT = "import time\nprint('x')\nstart = time.perf_counter()\n"
_MAY_WRITE = "import json\nwith open('out.json', 'w') as fh:\n    json.dump({}, fh)\n"

#: Every seeded source of the source checks: case -> (rule, verdict, files).
#: Each case's files are written under a directory named after the case.
#: A ``FLAG`` case draws at least one finding of ``rule`` and a ``CLEAN``
#: case none; findings of other rules are pinned by the golden alone.  A
#: case whose files are a package is named after it, and its imports spell
#: that name, so the import graph of one case never meets another's.
SOURCE_CASES = {
    "rep001_literal_seed": (
        "REP001", FLAG, {"m.py": "import random\nrng = random.Random(0)\n"}
    ),
    "rep001_from_import_alias": (
        "REP001", FLAG, {"m.py": "from random import Random as R\nrng = R(42)\n"}
    ),
    "rep001_derive_rng": (
        "REP001",
        CLEAN,
        {"m.py": "from repro.sim.rng import derive_rng\nrng = derive_rng(0, 'a')\n"},
    ),
    "rep001_sim_rng_module": (
        "REP001", CLEAN, {"sim/rng.py": "import random\nrng = random.Random(7)\n"}
    ),
    "rep002_getrandbits_reseed": (
        "REP002",
        FLAG,
        {
            "m.py": "import random\ndef f(rng):\n"
            "    return random.Random(rng.getrandbits(64))\n"
        },
    ),
    "rep002_plain_getrandbits": (
        "REP002", CLEAN, {"m.py": "def f(rng):\n    return rng.getrandbits(32)\n"}
    ),
    **{
        f"rep003_{name}": ("REP003", FLAG, {"m.py": _WALL_CLOCK.format(call)})
        for name, call in (
            ("time_time", "time.time()"),
            ("datetime_now", "datetime.now()"),
            ("datetime_utcnow", "datetime.utcnow()"),
            ("date_today", "date.today()"),
            ("datetime_datetime_now", "datetime.datetime.now()"),
        )
    },
    "rep003_from_time_import_time": (
        "REP003", FLAG, {"m.py": "from time import time\nstamp = time()\n"}
    ),
    "rep003_perf_counter": (
        "REP003", CLEAN, {"m.py": "import time\nelapsed = time.perf_counter()\n"}
    ),
    **{
        f"rep004_{exc.lower()}": (
            "REP004", FLAG, {"m.py": f"def f():\n    raise {exc}('x')\n"}
        )
        for exc in ("ValueError", "RuntimeError", "TypeError", "KeyError")
    },
    "rep004_repro_error": (
        "REP004",
        CLEAN,
        {
            "m.py": "from repro.errors import ConfigError\n"
            "def f():\n    raise ConfigError('x')\n"
        },
    ),
    "rep004_bare_reraise": (
        "REP004",
        CLEAN,
        {
            "m.py": "def f():\n    try:\n        pass\n"
            "    except Exception:\n        raise\n"
        },
    ),
    "rep005_list_of_set": ("REP005", FLAG, {"m.py": "items = list(set([1, 2]))\n"}),
    "rep005_for_over_set_call": (
        "REP005", FLAG, {"m.py": "for item in set([1, 2]):\n    print(item)\n"}
    ),
    "rep005_comprehension_over_set_literal": (
        "REP005", FLAG, {"m.py": "out = [x for x in {1, 2}]\n"}
    ),
    "rep005_sorted_set": (
        "REP005",
        CLEAN,
        {
            "m.py": "items = sorted(set([1, 2]))\n"
            "for item in sorted({3, 4}):\n    print(item)\n"
        },
    ),
    "rep005_membership_test": (
        "REP005", CLEAN, {"m.py": "hit = 3 in set([1, 2, 3])\n"}
    ),
    "rep006_crypto_imports_experiments": (
        "REP006",
        FLAG,
        _package(
            {
                "crypto/keys.py": "from rep006_crypto_imports_experiments"
                ".experiments import campaign\n",
                "experiments/campaign.py": "X = 1\n",
            }
        ),
    ),
    "rep006_cycle_pair": (
        "REP006",
        FLAG,
        _package(
            {
                "alpha.py": "import rep006_cycle_pair.beta\n",
                "beta.py": "import rep006_cycle_pair.alpha\n",
            }
        ),
    ),
    # The modules' sorted order is not the cycle's order: a imports c.
    "rep006_cycle_three": (
        "REP006",
        FLAG,
        _package(
            {
                "a.py": "import rep006_cycle_three.c\n",
                "b.py": "import rep006_cycle_three.a\n",
                "c.py": "import rep006_cycle_three.b\n",
            }
        ),
    ),
    "rep006_type_checking_import": (
        "REP006",
        CLEAN,
        _package(
            {
                "alpha.py": "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import rep006_type_checking_import.beta\n",
                "beta.py": "import rep006_type_checking_import.alpha\n",
            }
        ),
    ),
    "rep006_relative_import": (
        "REP006",
        FLAG,
        _package(
            {
                "sim/clock.py": "from ..trawl import harvest\n",
                "trawl/harvest.py": "X = 1\n",
            }
        ),
    ),
    "rep006_store_imports_service": (
        "REP006",
        FLAG,
        _package(
            {
                "store/checkpoint.py": "from rep006_store_imports_service"
                ".service import api\n",
                "service/api.py": "X = 1\n",
            }
        ),
    ),
    "rep006_service_imports_substrates": (
        "REP006",
        CLEAN,
        _package(
            {
                "service/controller.py": "from rep006_service_imports_substrates"
                ".store import checkpoint\n"
                "from rep006_service_imports_substrates.supervise import harness\n",
                "store/checkpoint.py": "X = 1\n",
                "supervise/harness.py": "Y = 2\n",
            }
        ),
    ),
    "rep006_function_local_import": (
        "REP006",
        CLEAN,
        _package(
            {
                "core.py": "LABEL = 1\n",
                "app.py": "from rep006_function_local_import.core import LABEL\n"
                "\n\ndef main():\n"
                "    from rep006_function_local_import import extra\n"
                "    return LABEL\n",
                "extra.py": "import rep006_function_local_import.app\nVALUE = 2\n",
            }
        ),
    ),
    **{
        f"rep007_{name}": ("REP007", FLAG, {"m.py": source})
        for name, source in (
            ("import_multiprocessing", "import multiprocessing\n"),
            ("import_concurrent_futures", "import concurrent.futures\n"),
            ("from_multiprocessing", "from multiprocessing import Pool\n"),
            (
                "from_concurrent_futures",
                "from concurrent.futures import ProcessPoolExecutor\n",
            ),
            ("import_as", "import multiprocessing.pool as mp\n"),
        )
    },
    "rep007_pmap_import": (
        "REP007", CLEAN, {"m.py": "from repro.parallel import pmap\n"}
    ),
    "rep007_similar_prefix": ("REP007", CLEAN, {"m.py": "import concurrently\n"}),
    "rep007_parallel_package": (
        "REP007",
        CLEAN,
        {"repro/parallel/executor.py": "from concurrent import futures\n"},
    ),
    "rep008_bare_except": (
        "REP008", FLAG, {"m.py": "try:\n    probe()\nexcept:\n    handle()\n"}
    ),
    **{
        f"rep008_{exc.lower()}": (
            "REP008",
            FLAG,
            {"m.py": f"try:\n    probe()\nexcept {exc} as err:\n    log(err)\n"},
        )
        for exc in ("Exception", "BaseException")
    },
    "rep008_catch_all_in_tuple": (
        "REP008",
        FLAG,
        {"m.py": "try:\n    probe()\nexcept (OSError, Exception):\n    handle()\n"},
    ),
    "rep008_silent_swallow": (
        "REP008", FLAG, {"m.py": "try:\n    probe()\nexcept NetworkError:\n    pass\n"}
    ),
    "rep008_typed_and_handled": (
        "REP008",
        CLEAN,
        {
            "m.py": "try:\n    probe()\nexcept NetworkError as err:\n"
            "    taxonomy.record(err)\n"
        },
    ),
    "rep008_fault_plane": (
        "REP008",
        CLEAN,
        {
            "repro/faults/transport.py": "try:\n    probe()\n"
            "except Exception:\n    pass\n"
        },
    ),
    "rep009_print": (
        "REP009", FLAG, {"m.py": "def f(count):\n    print('scanned', count)\n"}
    ),
    "rep009_time_perf_counter": (
        "REP009", FLAG, {"m.py": "import time\nstart = time.perf_counter()\n"}
    ),
    "rep009_aliased_perf_counter": (
        "REP009",
        FLAG,
        {"m.py": "from time import perf_counter as tick\nstart = tick()\n"},
    ),
    "rep009_observer_calls": (
        "REP009",
        CLEAN,
        {
            "m.py": "def f(obs):\n    obs.count('probes_total')\n"
            "    with obs.span('scan.day'):\n        obs.add_time(86400)\n"
        },
    ),
    "rep009_print_attribute": ("REP009", CLEAN, {"m.py": "report.print_summary()\n"}),
    **{
        f"rep009_may_print_{place.replace('/', '_')[:-3]}": (
            "REP009", CLEAN, {place: _MAY_PRINT}
        )
        for place in (
            "repro/obs/export.py",
            "repro/cli.py",
            "benchmarks/bench_scan.py",
            "tests/test_scan.py",
            "examples/quickstart.py",
        )
    },
    "rep010_open_write_mode": (
        "REP010",
        FLAG,
        {"m.py": "with open('out.json', 'w') as fh:\n    fh.write('{}')\n"},
    ),
    "rep010_open_mode_keyword": (
        "REP010", FLAG, {"m.py": "fh = open('out.bin', mode='ab')\n"}
    ),
    "rep010_open_for_reading": (
        "REP010",
        CLEAN,
        {
            "m.py": "with open('in.json') as fh:\n    data = fh.read()\n"
            "with open('in.txt', 'r') as fh:\n    text = fh.read()\n"
        },
    ),
    "rep010_json_dump": (
        "REP010",
        FLAG,
        {"m.py": "import json\ndef f(data, fh):\n    json.dump(data, fh)\n"},
    ),
    "rep010_json_dumps": (
        "REP010", CLEAN, {"m.py": "import json\ntext = json.dumps({'a': 1})\n"}
    ),
    **{
        f"rep010_{method}": (
            "REP010", FLAG, {"m.py": f"def f(path):\n    path.{method}('x')\n"}
        )
        for method in ("write_text", "write_bytes")
    },
    "rep010_path_open_write_mode": (
        "REP010", FLAG, {"m.py": "def f(path):\n    return path.open('a')\n"}
    ),
    "rep010_path_open_read": (
        "REP010", CLEAN, {"m.py": "def f(path):\n    return path.open()\n"}
    ),
    **{
        f"rep010_may_write_{place.replace('/', '_')[:-3]}": (
            "REP010", CLEAN, {place: _MAY_WRITE}
        )
        for place in (
            "repro/io.py",
            "repro/store/cas.py",
            "repro/obs/export.py",
            "repro/cli.py",
            "benchmarks/conftest.py",
            "tests/test_scan.py",
            "examples/quickstart.py",
        )
    },
    **{
        f"rep014_{exc.lower()}": (
            "REP014",
            FLAG,
            {"m.py": f"try:\n    probe()\nexcept {exc}:\n    recover()\n"},
        )
        for exc in (
            "BaseException",
            "KeyboardInterrupt",
            "SystemExit",
            "SimulatedCrashError",
        )
    },
    "rep014_teardown_name_in_tuple": (
        "REP014",
        FLAG,
        {
            "m.py": "try:\n    probe()\nexcept (ValueError, KeyboardInterrupt):\n"
            "    recover()\n"
        },
    ),
    "rep014_attribute_spelling": (
        "REP014",
        FLAG,
        {
            "m.py": "import repro.errors\ntry:\n    probe()\n"
            "except repro.errors.SimulatedCrashError:\n    recover()\n"
        },
    ),
    "rep014_bare_except": (
        "REP014", FLAG, {"m.py": "try:\n    probe()\nexcept:\n    recover()\n"}
    ),
    "rep014_signal_install": (
        "REP014",
        FLAG,
        {"m.py": "import signal\nsignal.signal(signal.SIGTERM, handler)\n"},
    ),
    "rep014_aliased_signal_install": (
        "REP014",
        FLAG,
        {"m.py": "from signal import signal as install\ninstall(15, handler)\n"},
    ),
    "rep014_signal_constants": (
        "REP014",
        CLEAN,
        {
            "m.py": "import signal\nname = signal.Signals(15).name\n"
            "pending = signal.getsignal(signal.SIGTERM)\n"
        },
    ),
    "rep014_typed_catch": (
        "REP014",
        CLEAN,
        {"m.py": "try:\n    probe()\nexcept NetworkError:\n    recover()\n"},
    ),
    # ``except Exception`` is REP008's finding; it does not catch teardown.
    "rep014_exception_catch_all": (
        "REP014",
        CLEAN,
        {"m.py": "try:\n    probe()\nexcept Exception:\n    recover()\n"},
    ),
    "rep014_supervise_package": (
        "REP014",
        CLEAN,
        {
            "repro/supervise/supervisor.py": "try:\n    probe()\n"
            "except SimulatedCrashError:\n    restart()\n"
        },
    ),
    # REP008 exempts the fault plane; teardown containment has no second home.
    "rep014_fault_plane": (
        "REP014",
        FLAG,
        {
            "repro/faults/retry.py": "try:\n    probe()\n"
            "except BaseException:\n    pass\n"
        },
    ),
    "rep015_socket_import": ("REP015", FLAG, {"m.py": "import socket\n"}),
    "rep015_http_server_from_import": (
        "REP015", FLAG, {"m.py": "from http.server import ThreadingHTTPServer\n"}
    ),
    "rep015_socketserver_and_asyncio": (
        "REP015", FLAG, {"m.py": "import socketserver\nimport asyncio\n"}
    ),
    "rep015_non_network_imports": (
        "REP015",
        CLEAN,
        {"m.py": "import json\nimport threading\nfrom pathlib import Path\n"},
    ),
    "rep015_import_inside_function": (
        "REP015",
        FLAG,
        {"m.py": "def fetch():\n    import http.client\n    return http.client\n"},
    ),
    "rep015_service_package": (
        "REP015",
        CLEAN,
        {
            "repro/service/frontend.py": "import socket\n"
            "from http.server import HTTPServer\n"
        },
    ),
    "rep015_tests_tree": (
        "REP015", CLEAN, {"tests/test_wire.py": "import http.client\n"}
    ),
    # Every fenced or raw-RNG call is caught however its module is bound.
    **{
        f"alias_{name}": (rule, FLAG, {"m.py": source})
        for name, rule, source in (
            ("from_json_dump", "REP010", "from json import dump\ndump(data, fh)\n"),
            ("json_as_j", "REP010", "import json as j\nj.dump(data, fh)\n"),
            (
                "datetime_as_dt",
                "REP003",
                "from datetime import datetime as dt\nstamp = dt.now()\n",
            ),
            ("time_as_t_time", "REP003", "import time as t\nstamp = t.time()\n"),
            (
                "time_as_t_perf_counter",
                "REP009",
                "import time as t\nstarted = t.perf_counter()\n",
            ),
            (
                "datetime_module_as_dt",
                "REP003",
                "import datetime as _dt\nstamp = _dt.datetime.now()\n",
            ),
            (
                "signal_as_s",
                "REP014",
                "import signal as s\ns.signal(s.SIGINT, handler)\n",
            ),
            ("random_as_r_seed", "REP001", "import random as r\nrng = r.Random(0)\n"),
            (
                "random_as_r_split",
                "REP002",
                "import random as r\nchild = r.Random(rng.getrandbits(32))\n",
            ),
        )
    },
    "alias_unrelated_target": (
        "REP003",
        CLEAN,
        {"m.py": "import datetime as _dt\nday = _dt.datetime.strptime(text, fmt)\n"},
    ),
}


def write_source_cases(root) -> None:
    """Write every case of :data:`SOURCE_CASES` under ``root``, and the
    fenced spellings at every fence place under ``root/fences``."""
    files = {
        f"{name}/{relative}": source
        for name, (_rule, _verdict, case_files) in SOURCE_CASES.items()
        for relative, source in case_files.items()
    }
    files.update({f"fences/{place}": FENCED_SPELLINGS for place in FENCE_PLACES})
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")


def source_checks_artifact() -> str:
    """Every finding of the source checks over the seeded cases, one line each."""
    from tests.test_source_checks import seeded_findings

    return "\n".join(seeded_findings())


#: name -> zero-argument builder for each pinned golden file.
def _golden_fig1() -> str:
    return pipeline_artifacts(workers=1)["fig1_small"]


def _golden_fig1_faulted() -> str:
    return faulted_pipeline_artifacts(workers=1)["fig1_small"]


def _golden_fig2() -> str:
    return pipeline_artifacts(workers=1)["fig2_small"]


def _golden_table2() -> str:
    return table2_artifact(workers=1)


def _golden_metrics() -> str:
    return pipeline_artifacts(workers=1)["metrics_small"]


GOLDEN_CASES = {
    "all_large": lambda: all_artifact(
        stored=False, seed=ALL_LARGE_SEED, scale=ALL_LARGE_SCALE
    ),
    "all_small": lambda: all_artifact(stored=False),
    "all_small_store": lambda: all_artifact(stored=True),
    "fig1_small": _golden_fig1,
    "fig1_small_faulted": _golden_fig1_faulted,
    "fig2_small": _golden_fig2,
    "fig3_small": fig3_artifact,
    "harvest_small": harvest_artifact,
    "metrics_small": _golden_metrics,
    "models_shipped": models_artifact,
    "sec6_small": sec6_artifact,
    "sec7_detail_small": sec7_detail_artifact,
    "sec7_small": sec7_artifact,
    "source_checks": source_checks_artifact,
    "serve_wire_small": serve_wire_artifact,
    "store_payloads": store_payloads_artifact,
    "table2_detail_small": table2_detail_artifact,
    "table2_small": _golden_table2,
    "views_small": views_artifact,
}
