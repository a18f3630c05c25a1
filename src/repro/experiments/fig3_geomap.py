"""Fig 3 — geographic map of a popular hidden service's clients (Section VI).

The attacker (a) positions relays to be responsible HSDirs for the target
(a Goldnet front), (b) runs high-bandwidth guard relays, and (c) wraps
descriptor responses in the traffic signature.  Every client whose entry
guard happens to be the attacker's is deanonymised; resolving the captured
IPs through GeoIP yields the country distribution Fig 3 plots as a map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import codec
from repro.analysis.report import ExperimentReport
from repro.analysis.stats import l1_distance
from repro.sim.clock import DAY, HOUR, Timestamp, parse_date
from repro.sim.rng import derive_rng
from repro.store.checkpoint import ArtifactStore, Stage

if TYPE_CHECKING:
    from repro.tracking.geomap import ClientGeoMap


@dataclass
class Fig3Result:
    """The regenerated Fig 3 and attack effectiveness stats.

    ``geomap`` is ``None`` when the result was replayed from a store
    checkpoint; the scalar stats and the report round-trip.
    """

    geomap: Optional[ClientGeoMap] = field(default=None, metadata=codec.SKIP)
    captures: int = 0
    unique_clients: int = 0
    signatures_injected: int = 0
    capture_rate: float = 0.0
    attacker_guard_share: float = 0.0
    true_country_shares: Dict[str, float] = field(default_factory=dict)
    report: ExperimentReport = field(default_factory=lambda: ExperimentReport("fig3"))

    def format_map(self) -> str:
        """Text rendering of Fig 3 (needs a computed, not a replayed, result)."""
        return self.geomap.format_map()


def run_fig3(
    seed: int = 0,
    honest_relays: int = 400,
    attacker_guards: int = 12,
    attacker_guard_bandwidth: int = 9000,
    client_count: int = 1500,
    observation_days: int = 2,
    fetches_per_client_per_day: float = 3.0,
    store: Optional[ArtifactStore] = None,
) -> Fig3Result:
    """Run the opportunistic client-deanonymisation attack end to end.

    With ``store`` the whole experiment is one checkpoint keyed on these
    arguments; a warm run replays the stats and report without building
    the network or its clients.
    """
    arguments = {
        "seed": seed,
        "honest_relays": honest_relays,
        "attacker_guards": attacker_guards,
        "attacker_guard_bandwidth": attacker_guard_bandwidth,
        "client_count": client_count,
        "observation_days": observation_days,
        "fetches_per_client_per_day": fetches_per_client_per_day,
    }
    if store is None:
        return _compute_fig3(**arguments)
    stage = Stage.of("fig3", __name__, Fig3Result)
    return store.run(stage, arguments, lambda: _compute_fig3(**arguments))


def _compute_fig3(
    seed: int,
    honest_relays: int,
    attacker_guards: int,
    attacker_guard_bandwidth: int,
    client_count: int,
    observation_days: int,
    fetches_per_client_per_day: float,
) -> Fig3Result:
    from repro.client.client import TorClient
    from repro.crypto.descriptor_id import REPLICAS, descriptor_id
    from repro.crypto.keys import KeyPair
    from repro.crypto.ring import RING_SIZE
    from repro.hs.service import HiddenService
    from repro.net.geoip import GeoIP
    from repro.relay.flags import RelayFlags
    from repro.relay.relay import Relay
    from repro.tracking.deanon import ClientDeanonAttack, deploy_attacker_guards
    from repro.tracking.geomap import ClientGeoMap
    from repro.worldbuild import HonestNetworkSpec, build_honest_network

    start = parse_date("2013-02-10")
    network, pool = build_honest_network(
        seed,
        start,
        HonestNetworkSpec(relay_count=honest_relays, min_age_days=10),
        rng_label="fig3-net",
    )

    # The target: a Goldnet-like service the attacker wants to map.
    target = HiddenService(
        keypair=KeyPair.generate(derive_rng(seed, "fig3", "target")), online_from=0
    )

    # Attacker guards, backdated so they carry the Guard flag already.
    guard_rng = derive_rng(seed, "fig3", "guards")
    guards = deploy_attacker_guards(
        network, attacker_guards, guard_rng,
        bandwidth=attacker_guard_bandwidth, address_pool=pool,
    )

    # Attacker HSDirs: one relay ground per replica per observed day (the
    # descriptor ID is predictable, so the attacker positions ahead of
    # time).  Relays are backdated 30 h so the HSDir flag is live.
    hsdir_rng = derive_rng(seed, "fig3", "hsdirs")
    attacker_hsdirs: List[Relay] = []
    target_ids = set()
    for day in range(observation_days + 1):
        when = start + day * DAY
        for replica in range(REPLICAS):
            desc_id = descriptor_id(target.onion, when, replica)
            target_ids.add(desc_id)
            point = int.from_bytes(desc_id, "big")
            max_distance = RING_SIZE // max(1, honest_relays) // 50
            key = KeyPair.forge_near(hsdir_rng, point, max_distance)
            relay = Relay(
                nickname=f"dirgrab{day}{replica}",
                ip=pool.allocate(),
                or_port=9001,
                keypair=key,
                bandwidth=400,
                started_at=start - 30 * HOUR,
            )
            network.add_relay(relay)
            attacker_hsdirs.append(relay)

    network.rebuild_consensus(start)
    attack = ClientDeanonAttack(
        hsdir_relay_ids={relay.relay_id for relay in attacker_hsdirs},
        guard_fingerprints=frozenset(relay.fingerprint for relay in guards),
        target_descriptor_ids=target_ids,
        rng=derive_rng(seed, "fig3", "attack"),
    )
    attack.attach(network)

    # Attacker's share of guard bandwidth (determines capture probability).
    guard_entries = network.consensus.with_flag(RelayFlags.GUARD)
    total_guard_bw = sum(entry.bandwidth for entry in guard_entries)
    attacker_bw = sum(
        entry.bandwidth
        for entry in guard_entries
        if entry.fingerprint in attack.guard_fingerprints
    )
    guard_share = attacker_bw / total_guard_bw if total_guard_bw else 0.0

    # The client population, distributed per the GeoIP country weights.
    geoip = GeoIP(seed=seed)
    client_rng = derive_rng(seed, "fig3", "clients")
    clients: List[TorClient] = []
    true_counts: Dict[str, int] = {}
    for _ in range(client_count):
        country = geoip.random_country(client_rng)
        true_counts[country] = true_counts.get(country, 0) + 1
        client = TorClient(
            ip=geoip.random_ip(client_rng, country),
            rng=derive_rng(seed, "fig3", "client", str(len(clients))),
            country=country,
        )
        client.refresh_guards(network)
        clients.append(client)

    # Observation: the target republishes daily; clients fetch it.
    for day in range(observation_days):
        day_start: Timestamp = start + day * DAY
        network.rebuild_consensus(day_start)
        network.publish_service(target, day_start)
        # Watch both periods touching this day (the service's rotation
        # boundary sits at an identity-dependent offset inside the day).
        attack.retarget(
            {
                descriptor_id(target.onion, when, replica)
                for when in (day_start, day_start + DAY)
                for replica in range(REPLICAS)
            }
        )
        for client in clients:
            fetches = int(fetches_per_client_per_day)
            if client_rng.random() < fetches_per_client_per_day - fetches:
                fetches += 1
            for _ in range(fetches):
                when = day_start + client_rng.randrange(DAY)
                client.fetch_onion(network, target.onion, now=when)

    geomap = ClientGeoMap(geoip=geoip)
    geomap.add_ips(capture.client_ip for capture in attack.captures)

    true_total = sum(true_counts.values())
    true_shares = {c: n / true_total for c, n in true_counts.items()}

    result = Fig3Result(
        geomap=geomap,
        captures=len(attack.captures),
        unique_clients=len(attack.unique_client_ips),
        signatures_injected=attack.signatures_injected,
        capture_rate=attack.capture_rate(),
        attacker_guard_share=guard_share,
        true_country_shares=true_shares,
    )

    report = ExperimentReport(experiment="fig3-client-geomap")
    report.add("attacker guard share", None, round(guard_share, 4))
    report.add("signatures injected", None, attack.signatures_injected)
    report.add("clients captured (unique)", None, result.unique_clients)
    report.add("capture rate", round(guard_share, 3), round(result.capture_rate, 3))
    report.add("countries observed", None, geomap.country_count)
    report.add(
        "geo distribution L1 error",
        None,  # sampling error shrinks with capture count; see tests
        round(l1_distance(true_shares, geomap.shares()), 3),
    )
    report.add("false positives at guard", 0, attack.false_positives)
    report.note(
        "capture rate should approximate the attacker's guard-bandwidth share; "
        "the captured-country distribution should match the true client mix"
    )
    result.report = report
    return result
