"""One world per ``repro all``: table2 and harvest reuse the pipeline's.

Passing a population must not change what either experiment reports: the
caller's ``scale`` stays authoritative.  At 0.05 the trap is concrete — a
0.05 world holds 2,001 onions, and re-deriving the scale from it
(2001/39,824 = 0.05025) would size the honest network at 73 relays
instead of 72 and move every paper expectation.

The world is built on demand: stage keys name it by seed and spec, so a
``repro all`` that replays every stage from the store builds no world and
re-runs no fig3, and prints what the cold run printed.
"""

import contextlib
import dataclasses
import io
import re
import shutil

import pytest

from repro.cli import main
from repro.experiments import fig3_geomap
from repro.experiments.harvest import run_harvest
from repro.experiments.pipeline import MeasurementPipeline, _TransportCursor
from repro.experiments.table2_popularity import run_table2
from repro.faults.profiles import build_fault_plan
from repro.faults.transport import wrap_transport
from repro.net.transport import TorTransport
from repro.population.generator import generate_population
from repro.population.lazy import LazyPopulation
from repro.sim.rng import derive_rng
from repro.store.ledger import Ledger

from tests.conftest import spy_on_world_builds

SEED = 5
SCALE = 0.05

UNPINNED = re.compile(r"^\[(\w+ done in [0-9.]+s|report archived to .*)\]$")
ALL_ARGV = ["all", "--scale", "0.01", "--seed", "1", "--workers", "1",
            "--fault-profile", "none"]


@pytest.fixture(scope="module")
def population():
    return generate_population(seed=SEED, scale=SCALE)


def spy_on_fig3(monkeypatch):
    """Count runs of fig3's simulation."""
    calls = []
    real = fig3_geomap._compute_fig3

    def counting(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(fig3_geomap, "_compute_fig3", counting)
    return calls


def pinned(stdout):
    """``repro all``'s output minus its stage wall times."""
    return "\n".join(line for line in stdout.splitlines() if not UNPINNED.match(line))


def run_all(monkeypatch, capsys, *extra):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    main(ALL_ARGV + list(extra))
    return pinned(capsys.readouterr().out)


def test_repro_all_builds_one_world(monkeypatch, capsys):
    calls = spy_on_world_builds(monkeypatch)
    run_all(monkeypatch, capsys)
    assert calls == [{"seed": 1, "scale": 0.01}]


@pytest.fixture(scope="module")
def cold_store(tmp_path_factory):
    """A store one cold ``repro all`` filled, and the text that run printed."""
    root = tmp_path_factory.mktemp("cold") / "store"
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(stdout):
        worlds = spy_on_world_builds(monkeypatch)
        fig3_runs = spy_on_fig3(monkeypatch)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        main(ALL_ARGV + ["--store", str(root)])
    text = pinned(stdout.getvalue())
    assert worlds == [{"seed": 1, "scale": 0.01}]
    assert len(fig3_runs) == 1
    return root, text


def test_warm_repro_all_builds_no_world_and_runs_no_fig3(
    cold_store, tmp_path, monkeypatch, capsys
):
    cold_root, cold_text = cold_store
    root = tmp_path / "store"
    shutil.copytree(cold_root, root)
    worlds = spy_on_world_builds(monkeypatch)
    fig3_runs = spy_on_fig3(monkeypatch)
    warm_text = run_all(monkeypatch, capsys, "--store", str(root))
    assert worlds == []
    assert fig3_runs == []
    assert warm_text == cold_text


@pytest.mark.parametrize(
    "stage, worlds_built", [("crawl", 1), ("harvest", 1), ("fig3", 0)]
)
def test_partly_warm_store_builds_at_most_one_world(
    cold_store, tmp_path, monkeypatch, capsys, stage, worlds_built
):
    cold_root, cold_text = cold_store
    root = tmp_path / "store"
    shutil.copytree(cold_root, root)
    entries = list((root / "index" / stage).iterdir())
    assert len(entries) == 1
    entries[0].unlink()
    worlds = spy_on_world_builds(monkeypatch)
    fig3_runs = spy_on_fig3(monkeypatch)
    text = run_all(monkeypatch, capsys, "--store", str(root))
    assert len(worlds) == worlds_built
    assert len(fig3_runs) == (1 if stage == "fig3" else 0)
    assert text == cold_text
    # Only the deleted stage recomputes: the stages after it start from
    # the stream state the cold run left them, so their keys still hit.
    entries = list(Ledger(root / "ledger.jsonl").entries())
    last_run = [entry for entry in entries if entry["run"] == entries[-1]["run"]]
    assert [e["stage"] for e in last_run if e["event"] != "hit"] == [stage]


@pytest.mark.parametrize(
    "seed, scale", [(0, 1.0), (3, 0.05), (15, 0.02), (1, 0.01), (7, 0.25)]
)
def test_derived_world_key_matches_the_built_world(seed, scale):
    pipeline = MeasurementPipeline(seed=seed, scale=scale, fault_profile="none")
    derived = pipeline._store_config()["population"]
    assert derived == LazyPopulation(seed=seed, scale=scale).identity()
    built = generate_population(seed=seed, scale=scale)
    assert derived == {"seed": built.seed, "spec": dataclasses.asdict(built.spec)}
    assert pipeline.world.spec.total_onions == built.spec.total_onions


@pytest.mark.parametrize("profile", ["none", "moderate"])
def test_cursor_before_the_transport_matches_a_fresh_transport(profile):
    seed = 4
    pipeline = MeasurementPipeline(seed=seed, scale=0.01, fault_profile=profile)
    cursor = _TransportCursor(pipeline)
    before = cursor.capture()
    assert pipeline._transport is None
    population = generate_population(seed=seed, scale=0.01)
    fresh = wrap_transport(
        TorTransport(
            population.registry,
            derive_rng(seed, "pipeline", "transport"),
            descriptor_available=population.descriptor_available,
        ),
        build_fault_plan(profile, seed=seed),
    )
    assert before == fresh.stream_state()

    # A state restored before the transport exists is where it starts.
    for onion in population.all_onions[:20]:
        fresh.connect(onion, 80, now=population.scan_start)
    advanced = fresh.stream_state()
    assert advanced != before
    cursor.restore(advanced)
    assert pipeline._transport is None
    assert pipeline.transport.stream_state() == advanced
    assert cursor.capture() == advanced


def test_table2_population_keeps_the_callers_scale(population):
    def report(**world):
        result = run_table2(
            seed=SEED,
            scale=SCALE,
            sweep_hours=2,
            rotation_interval_hours=1,
            relays_per_ip=16,
            workers=1,
            **world,
        )
        return result.report.format() + "\n" + result.ranking.format_table(limit=10)

    assert report(population=population) == report()


def test_harvest_population_keeps_the_callers_scale(population):
    def report(**world):
        result = run_harvest(
            seed=SEED,
            scale=SCALE,
            ip_count=8,
            relays_per_ip=8,
            sweep_hours=2,
            **world,
        )
        return result.report.format(), sorted(result.harvest.onions)

    assert report(population=population) == report()
