"""Standard world construction shared by experiments, examples and tests.

Every experiment needs the same scaffolding — an honest relay population
with seasoned uptimes and realistic bandwidths, an address pool, a network
facade — before the interesting part starts.  One builder keeps those
choices consistent (and centrally documented) across the suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.keys import KeyPair
from repro.errors import ConfigError
from repro.net.address import AddressPool
from repro.relay.relay import Relay
from repro.sim.clock import DAY, SimClock, Timestamp
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork


@dataclass(frozen=True)
class HonestNetworkSpec:
    """Parameters of the honest relay population.

    Defaults approximate the early-2013 network the paper measured:
    bandwidths spread over an order of magnitude, relays between days and
    years old (so most carry HSDir/Stable, a bandwidth-dependent subset
    Guard).
    """

    relay_count: int = 1_450
    min_bandwidth: int = 100
    max_bandwidth: int = 5_000
    min_age_days: int = 5
    max_age_days: int = 500
    or_port: int = 9001


@dataclass(frozen=True)
class EpochWorld:
    """The deterministic identity of one service epoch's simulated world.

    The service plane (``repro.service``) advances the world between epochs
    by deriving a fresh population seed from the base seed and the epoch
    index; epoch 0 keeps the base seed so the first service epoch is
    byte-identical to the equivalent one-shot batch run.
    """

    epoch: int
    seed: int
    scale: float


def advance_epoch(base_seed: int, scale: float, epoch: int) -> EpochWorld:
    """Derive the world identity for ``epoch`` from the base seed.

    Epoch 0 reuses ``base_seed`` verbatim; later epochs draw a fresh seed
    from the lineage-tracked RNG tree so each epoch's population evolves
    deterministically and independently of how many epochs ran before it.
    """
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    if epoch == 0:
        seed = base_seed
    else:
        seed = derive_rng(base_seed, "service", "epoch", str(epoch)).randrange(
            2**31
        )
    return EpochWorld(epoch=epoch, seed=seed, scale=scale)


def build_honest_network(
    seed: int,
    start: Timestamp,
    spec: Optional[HonestNetworkSpec] = None,
    rng_label: str = "honest-network",
) -> Tuple[TorNetwork, AddressPool]:
    """Stand up a network of seasoned honest relays with a live consensus.

    Returns the facade plus the address pool (attacks rent their IPs from
    the same pool so addresses never collide).
    """
    if spec is None:
        spec = HonestNetworkSpec()
    rng = derive_rng(seed, rng_label, "relays")
    pool = AddressPool(derive_rng(seed, rng_label, "ips"))
    network = TorNetwork(clock=SimClock(start))
    for index in range(spec.relay_count):
        network.add_relay(
            Relay(
                nickname=f"relay{index:05d}",
                ip=pool.allocate(),
                or_port=spec.or_port,
                keypair=KeyPair.generate(rng),
                bandwidth=rng.randint(spec.min_bandwidth, spec.max_bandwidth),
                started_at=start
                - rng.randint(spec.min_age_days, spec.max_age_days) * DAY,
            )
        )
    network.rebuild_consensus(start)
    return network, pool
