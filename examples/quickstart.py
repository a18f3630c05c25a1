#!/usr/bin/env python3
"""Quickstart: stand up a small simulated Tor network, publish a hidden
service, and fetch its descriptor as a client.

Walks the v2 hidden-service mechanics the paper's measurements exploit:
onion addresses derived from key digests, daily-rotating descriptor IDs,
the HSDir fingerprint ring, and the six responsible directories.

Run:  python examples/quickstart.py
"""

from repro.client.client import TorClient
from repro.crypto.descriptor_id import descriptor_ids_for_day
from repro.crypto.keys import KeyPair
from repro.hs.service import HiddenService
from repro.net.address import AddressPool
from repro.relay.relay import Relay
from repro.sim.clock import DAY, SimClock, format_date, parse_date
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork

SEED = 7
START = parse_date("2013-02-04")  # the paper's harvest date


def main() -> None:
    rng = derive_rng(SEED, "quickstart")
    pool = AddressPool(derive_rng(SEED, "quickstart", "ips"))

    # --- a small Tor network -------------------------------------------- #
    network = TorNetwork(clock=SimClock(START))
    for index in range(200):
        network.add_relay(
            Relay(
                nickname=f"relay{index:03d}",
                ip=pool.allocate(),
                or_port=9001,
                keypair=KeyPair.generate(rng),
                bandwidth=rng.randint(100, 5000),
                started_at=START - rng.randint(5, 400) * DAY,
            )
        )
    consensus = network.rebuild_consensus(START)
    print(f"network : {len(consensus)} relays, {consensus.hsdir_count} HSDirs")

    # --- a hidden service ------------------------------------------------- #
    service = HiddenService(keypair=KeyPair.generate(rng), online_from=0)
    print(f"service : {service.onion}")

    for replica, desc_id in enumerate(descriptor_ids_for_day(service.onion, START)):
        print(f"  replica {replica} descriptor id: {desc_id.hex()}")
    responsible = network.responsible_set(service.onion)
    print(f"  responsible HSDirs: {len(responsible)}")
    for fingerprint in sorted(responsible):
        entry = network.consensus.entry_for(fingerprint)
        print(f"    {fingerprint.hex()[:16]}…  {entry.nickname}")

    delivered = network.publish_service(service)
    print(f"published to {delivered} directories")

    # --- a client fetch ----------------------------------------------------- #
    client = TorClient(ip=0x08080808, rng=derive_rng(SEED, "client"))
    client.refresh_guards(network)
    stored = client.fetch_onion(network, service.onion)
    assert stored is not None
    print(f"client fetched descriptor, key digest matches: "
          f"{stored.public_der == service.keypair.public_der}")

    # --- rotation: tomorrow the IDs (and directories) move ------------------- #
    network.clock.advance_by(DAY)
    network.rebuild_consensus()
    stale = client.fetch_onion(network, service.onion)
    print(f"{format_date(network.clock.now)}: fetch without republish -> "
          f"{'hit' if stale else 'miss (descriptor rotated)'}")
    network.publish_service(service)
    fresh = client.fetch_onion(network, service.onion)
    print(f"after republish -> {'hit' if fresh else 'miss'}")


if __name__ == "__main__":
    main()
