"""Which simulated directories keep an hourly request tally.

Per-ID request counters are on everywhere; the per-(ID, hour) tally is
kept only where an analysis reads it.  Table II's shape forensic reads its
attacker fleet's tallies, so those directories — and no others — keep one.
The harvest reads counters and stores only, so none of its directories do.

The networks are observed through spies on the directories ``TorNetwork``
provisions and on the ``TrawlAttack`` each experiment builds.
"""

import pytest

from repro import tornet
from repro.experiments.harvest import run_harvest
from repro.experiments.table2_popularity import run_table2
from repro.hsdir.directory import HSDirServer
from repro.trawl import attack as attack_module
from repro.trawl.attack import TrawlAttack
from tests.goldens.cases import (
    HARVEST_IPS,
    HARVEST_RELAYS_PER_IP,
    HARVEST_SCALE,
    HARVEST_SEED,
    HARVEST_SWEEP_HOURS,
    TABLE2_SCALE,
    TABLE2_SEED,
    TABLE2_SWEEP_HOURS,
)


@pytest.fixture
def spies(monkeypatch):
    """Record every provisioned directory and every trawl attack."""
    directories = []
    attacks = []

    class SpyDirectory(HSDirServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            directories.append(self)

    class SpyAttack(TrawlAttack):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            attacks.append(self)

    monkeypatch.setattr(tornet, "HSDirServer", SpyDirectory)
    # Both experiments import the attack when they compute, so one patch
    # on its defining module reaches them.
    monkeypatch.setattr(attack_module, "TrawlAttack", SpyAttack)
    return directories, attacks


def test_table2_logs_only_at_its_fleet(spies):
    directories, attacks = spies
    run_table2(
        seed=TABLE2_SEED,
        scale=TABLE2_SCALE,
        sweep_hours=TABLE2_SWEEP_HOURS,
        rotation_interval_hours=1,
        relays_per_ip=16,
        workers=1,
    )
    (attack,) = attacks
    fleet = [attack.network.hsdir_server_for(r) for r in attack.fleet.all_relays]
    fleet_ids = {id(server) for server in fleet}
    honest = [server for server in directories if id(server) not in fleet_ids]
    assert len(directories) == len(honest) + len(fleet)
    assert honest and all(not s.keep_log and not s._hourly for s in honest)
    # Clients fetched from the honest directories too; only counters saw it.
    assert any(server.request_counts for server in honest)
    assert all(server.keep_log for server in fleet)
    # Every fetch a fleet directory counted is in its hourly tally too.
    tallied = [
        sum(sum(hour.values()) for hour in server.hourly_requests().values())
        for server in fleet
    ]
    assert tallied == [server.total_requests for server in fleet]
    assert sum(tallied) > 0


def test_harvest_keeps_no_log(spies):
    directories, attacks = spies
    run_harvest(
        seed=HARVEST_SEED,
        scale=HARVEST_SCALE,
        ip_count=HARVEST_IPS,
        relays_per_ip=HARVEST_RELAYS_PER_IP,
        sweep_hours=HARVEST_SWEEP_HOURS,
    )
    (attack,) = attacks
    assert len(directories) > len(attack.fleet.all_relays)
    assert all(not s.keep_log and not s._hourly for s in directories)
