"""Shared fixtures.

Heavy artifacts (trained classifiers, generated worlds, pipeline runs) are
session-scoped: they are deterministic, so sharing them across tests changes
nothing but the wall-clock.
"""

from __future__ import annotations

import contextlib
import sys

import pytest

from repro.classify.training import build_language_detector, build_topic_classifier
from repro.crypto.keys import KeyPair
from repro.experiments.pipeline import MeasurementPipeline
from repro.net.address import AddressPool
from repro.population.generator import generate_population
from repro.relay.relay import Relay
from repro.sim.clock import DAY, SimClock, parse_date
from repro.sim.rng import derive_rng
from repro.tornet import TorNetwork

TEST_SCALE = 0.04


@pytest.fixture(scope="session")
def small_population():
    """A ~1,600-onion world calibrated like the paper's, at 4% scale."""
    return generate_population(seed=11, scale=TEST_SCALE)


@pytest.fixture(scope="session")
def small_pipeline(small_population):
    """Scan+crawl+classify pipeline over the small world (lazy stages).

    Pinned to the fault-free profile: the tests built on this fixture
    check measurement tolerances, and must mean the same thing when CI
    exports ``REPRO_FAULTS``.  Faulted behaviour has its own fixtures,
    goldens and equivalence tests.
    """
    return MeasurementPipeline(
        seed=11, population=small_population, fault_profile="none"
    )


@pytest.fixture(scope="session")
def language_detector():
    """The shipped language model (trained once per process)."""
    return build_language_detector()


@pytest.fixture(scope="session")
def topic_classifier():
    """The shipped topic model (trained once per process)."""
    return build_topic_classifier()


def make_network(
    seed: int,
    relay_count: int = 150,
    start=parse_date("2013-01-01"),
):
    """A fresh honest network with ``relay_count`` seasoned relays."""
    rng = derive_rng(seed, "test-net")
    pool = AddressPool(derive_rng(seed, "test-ips"))
    network = TorNetwork(clock=SimClock(start))
    for index in range(relay_count):
        network.add_relay(
            Relay(
                nickname=f"relay{index:04d}",
                ip=pool.allocate(),
                or_port=9001,
                keypair=KeyPair.generate(rng),
                bandwidth=rng.randint(100, 5000),
                started_at=start - rng.randint(5, 400) * DAY,
            )
        )
    network.rebuild_consensus(start)
    return network, pool


@pytest.fixture()
def network():
    """A fresh 150-relay network (function scope: tests mutate it)."""
    net, _pool = make_network(seed=21)
    return net


@pytest.fixture()
def network_and_pool():
    """Network plus its address pool (for tests that add relays)."""
    return make_network(seed=22)


#: The service-plane test configuration: three supervised epochs at 2%
#: scale under the moderate crash schedule.  Faults and workers stay
#: unpinned so the CI matrix (REPRO_FAULTS / REPRO_WORKERS) flows
#: through the controller exactly as it does through the batch CLI.
SERVICE_SEED = 11
SERVICE_SCALE = 0.02
SERVICE_EPOCHS = 3
SERVICE_SWEEP_HOURS = 4


def spy_on_world_builds(monkeypatch):
    """Record the kwargs of every ``generate_population`` call.

    Patches every loaded ``repro`` module that binds the function, so a
    call counts wherever the build happens.
    """
    calls = []
    real = generate_population
    binders = [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(module, "generate_population", None) is real
    ]
    assert binders, "no repro module binds generate_population"

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    for module in binders:
        monkeypatch.setattr(module, "generate_population", counting)
    return calls


@contextlib.contextmanager
def numpy_unimportable():
    """Make ``import numpy`` raise ``ImportError`` inside the block.

    The batch kernels are pure Python; a kernel run under this block
    proves it needs no numpy, even where numpy is installed.  Only the
    ``numpy`` entry of ``sys.modules`` is touched and restored.
    """
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved


def make_service_controller(store_root, **overrides):
    """The shared service's controller over ``store_root``, with per-test
    overrides of its run settings, ``epochs`` or ``sweep_hours``.

    Workers and fault profile left unset fall back to ``$REPRO_WORKERS``
    and ``$REPRO_FAULTS``, as ``repro serve`` resolves them.
    """
    from repro.runconfig import RunConfig
    from repro.service import EpochController

    settings = dict(
        seed=SERVICE_SEED,
        scale=SERVICE_SCALE,
        workers=None,
        fault_profile=None,
        crash_profile="moderate",
        store_dir=str(store_root),
    )
    shape = dict(epochs=SERVICE_EPOCHS, sweep_hours=SERVICE_SWEEP_HOURS)
    for name, value in overrides.items():
        (shape if name in shape else settings)[name] = value
    return EpochController(RunConfig.resolve(settings), **shape)


@pytest.fixture(scope="session")
def service_store_root(tmp_path_factory):
    """The session's service store directory (shared across epochs)."""
    return str(tmp_path_factory.mktemp("service-store"))


@pytest.fixture(scope="session")
def service_controller(service_store_root):
    """Three completed supervised epochs under the moderate crash plan."""
    controller = make_service_controller(service_store_root)
    controller.run()
    return controller
