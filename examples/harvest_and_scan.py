#!/usr/bin/env python3
"""Harvest onion addresses with the shadow-relay attack, then port-scan them.

The Fig 1 pipeline at 5% of the paper's scale: a ~2,000-onion world, the
58-IP trawl collecting descriptors off the HSDir ring, and the 8-day port
scan that finds the Skynet botnet on port 55080.

Run:  python examples/harvest_and_scan.py
"""

from repro.crypto.keys import KeyPair
from repro.hs.publisher import PublishScheduler
from repro.net.address import AddressPool
from repro.net.transport import TorTransport
from repro.population.generator import generate_population
from repro.relay.relay import Relay
from repro.scan.scanner import PortScanner
from repro.scan.schedule import ScanSchedule
from repro.scan.tls import analyze_certificates, collect_certificates
from repro.sim.clock import DAY, HOUR, SimClock
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork
from repro.trawl.attack import TrawlAttack, TrawlConfig
from repro.trawl.coverage import naive_ip_requirement

SEED = 11
SCALE = 0.05


def main() -> None:
    population = generate_population(seed=SEED, scale=SCALE)
    print(f"world   : {len(population.records)} hidden services "
          f"({population.spec.skynet_bot_count} Skynet bots)")

    # Honest network + every service publishing.
    start = population.harvest_date - 28 * HOUR
    network = TorNetwork(clock=SimClock(start))
    rng = derive_rng(SEED, "honest")
    pool = AddressPool(derive_rng(SEED, "ips"))
    for index in range(120):
        network.add_relay(
            Relay(
                nickname=f"relay{index:03d}", ip=pool.allocate(), or_port=9001,
                keypair=KeyPair.generate(rng), bandwidth=rng.randint(100, 5000),
                started_at=start - rng.randint(5, 400) * DAY,
            )
        )
    network.rebuild_consensus(start)
    publisher = PublishScheduler(network, population.services)
    publisher.publish_initial(start)

    # --- the trawl ------------------------------------------------------- #
    config = TrawlConfig(ip_count=10, relays_per_ip=16, ripen_hours=26, sweep_hours=8)
    attack = TrawlAttack(network, config, derive_rng(SEED, "attack"), pool)
    harvest = attack.run(population.services, publisher)
    print(f"harvest : {len(harvest.onions)} onion addresses from "
          f"{config.ip_count} IPs ({attack.coverage.waves_completed} waves)")
    print(f"          a consensus-limited attacker would need "
          f"~{naive_ip_requirement(network.consensus.hsdir_count)} IPs "
          f"at this ring size")

    # --- the port scan ----------------------------------------------------- #
    transport = TorTransport(
        population.registry,
        derive_rng(SEED, "scan"),
        descriptor_available=population.descriptor_available,
    )
    schedule = ScanSchedule(start=population.scan_start, days=8)
    results = PortScanner(transport).run(sorted(harvest.onions), schedule)

    distribution = results.port_distribution()
    print(f"\nscan    : {len(results.descriptor_onions)} descriptors still "
          f"published, {distribution.total_open} open ports, "
          f"{distribution.unique_ports} distinct port numbers")
    print("\nOpen ports distribution (Fig 1):")
    for label, count in distribution.as_rows():
        print(f"  {label:>16}: {count}")

    # --- HTTPS certificates --------------------------------------------------- #
    https = results.onions_with_port(443)
    certs = collect_certificates(transport, https, schedule.end)
    analysis = analyze_certificates(certs)
    print(f"\nTLS     : {analysis.total_certificates} certificates; "
          f"{analysis.self_signed_mismatch} self-signed CN mismatches "
          f"({analysis.dominant_cn_count} pointing at the TorHost hosting "
          f"service); {analysis.deanonymizable_count} deanonymising "
          f"public-DNS CNs")


if __name__ == "__main__":
    main()
