"""One world per ``repro all``: table2 and harvest reuse the pipeline's.

Passing a population must not change what either experiment reports: the
caller's ``scale`` stays authoritative.  At 0.05 the trap is concrete — a
0.05 world holds 2,001 onions, and re-deriving the scale from it
(2001/39,824 = 0.05025) would size the honest network at 73 relays
instead of 72 and move every paper expectation.
"""

import pytest

from repro.cli import main
from repro.experiments import harvest, pipeline, run_harvest, run_table2
from repro.experiments import table2_popularity
from repro.population import generate_population

SEED = 5
SCALE = 0.05


@pytest.fixture(scope="module")
def population():
    return generate_population(seed=SEED, scale=SCALE)


def test_repro_all_builds_one_world(monkeypatch, capsys):
    calls = []
    for module in (pipeline, table2_popularity, harvest):
        real = module.generate_population

        def counting(*args, _real=real, **kwargs):
            calls.append(kwargs)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "generate_population", counting)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    main(["all", "--scale", "0.01", "--seed", "1", "--workers", "1",
          "--fault-profile", "none"])
    capsys.readouterr()
    assert calls == [{"seed": 1, "scale": 0.01}]


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
