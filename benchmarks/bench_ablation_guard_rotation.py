"""Ablation: deanonymisation compounds across guard rotations.

§II.B's operator attack (and §VI's client variant) are gated by guard
selection: per guard *generation*, a victim is capturable only if an
attacker relay landed in its 3-guard set (p = 1-(1-share)³).  Guards rotate
every 30–60 days, re-rolling that draw — so the captured fraction over time
follows 1-(1-p)^generations.  This ablation measures the compounding
directly on the publish path.
"""

from conftest import save_report

from repro.analysis.report import ExperimentReport
from repro.analysis.tables import format_rows
from repro.crypto.keys import KeyPair
from repro.hs.service import HiddenService
from repro.sim.clock import DAY, parse_date
from repro.sim.rng import derive_rng
from repro.tracking.deanon import deploy_attacker_guards
from repro.tracking.service_deanon import ServiceDeanonAttack
from repro.worldbuild import HonestNetworkSpec, build_honest_network

GENERATIONS = 6
TARGET_SERVICES = 120


def run_rotation_study():
    seed = 4
    start = parse_date("2013-01-01")
    network, pool = build_honest_network(
        seed, start, HonestNetworkSpec(relay_count=500), rng_label="rotation-net"
    )
    guards = deploy_attacker_guards(
        network, 16, derive_rng(seed, "rot", "guards"), bandwidth=9000,
        address_pool=pool,
    )
    network.rebuild_consensus(start)

    service_rng = derive_rng(seed, "rot", "services")
    services = [
        HiddenService(
            keypair=KeyPair.generate(service_rng),
            online_from=0,
            operator_ip=0x70000000 + index,
        )
        for index in range(TARGET_SERVICES)
    ]
    # The attacker watches *every* directory (it swept the ring): the gate
    # under study is purely the guard race.
    attack = ServiceDeanonAttack(
        hsdir_relay_ids={
            relay.relay_id for relay in network.authority.monitored_relays
        },
        guard_fingerprints=frozenset(relay.fingerprint for relay in guards),
        target_onions={service.onion for service in services},
        rng=derive_rng(seed, "rot", "sig"),
    )
    attack.attach(network)

    from repro.relay.flags import RelayFlags

    entries = network.consensus.with_flag(RelayFlags.GUARD)
    share = sum(
        e.bandwidth for e in entries if e.fingerprint in attack.guard_fingerprints
    ) / sum(e.bandwidth for e in entries)
    per_generation = 1 - (1 - share) ** 3

    rows = []
    for generation in range(1, GENERATIONS + 1):
        # Everyone's guards expire; publishes happen daily for a week.
        for service in services:
            service._guards = None
        network.clock.advance_by(61 * DAY)
        network.rebuild_consensus()
        for day in range(7):
            when = network.clock.now + day * DAY
            network.rebuild_consensus(when)
            for service in services:
                network.publish_service(service, when)
        captured = len(attack.deanonymized_services)
        predicted = 1 - (1 - per_generation) ** generation
        rows.append(
            (
                generation,
                captured,
                round(captured / TARGET_SERVICES, 3),
                round(predicted, 3),
            )
        )
    return share, rows


def test_ablation_guard_rotation(benchmark, report_dir):
    share, rows = benchmark.pedantic(run_rotation_study, rounds=1, iterations=1)

    report = ExperimentReport(experiment="ablation-guard-rotation")
    for generation, captured, fraction, predicted in rows:
        report.add(f"captured fraction after {generation} rotations", predicted, fraction)
    report.note(f"attacker guard-bandwidth share: {share:.3f}")
    table = format_rows(
        rows,
        headers=("guard generations", "services captured", "fraction", "predicted"),
    )
    save_report(
        report_dir, "ablation_guard_rotation", report.format() + "\n\n" + table
    )

    fractions = [fraction for _, _, fraction, _ in rows]
    # Monotone compounding, agreeing with the analytic curve.
    assert fractions == sorted(fractions)
    assert fractions[-1] > fractions[0]
    for _, _, fraction, predicted in rows:
        assert abs(fraction - predicted) < 0.15
