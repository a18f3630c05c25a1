"""Each simulated hour pays for what changed in it.

Structural checks on the incremental consensus and ring paths, measured on
real experiments: full ``FingerprintRing`` constructions stay at one per
authority instead of one per consensus, and the ring lookup memo stays
within its bound through a table2 fetch loop without changing a byte.
"""

import pathlib
import random

import pytest

import repro.crypto.ring as ring_module
from repro.crypto.ring import LOOKUP_MEMO_LIMIT, FingerprintRing
from repro.dirauth.authority import DirectoryAuthoritySet
from repro.experiments.harvest import run_harvest
from repro.experiments.sec7_tracking import run_sec7
from repro.sim.clock import HOUR
from tests.goldens import cases
from tests.test_tornet import make_service

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture
def ring_builds(monkeypatch):
    """Counts full ring constructions and, per authority, consensuses whose
    HSDir membership differs from the previous consensus's."""
    counts = {"full": 0, "membership_changed": 0, "consensuses": 0}
    authorities = set()
    real_init = FingerprintRing.__init__
    real_build = DirectoryAuthoritySet.build_consensus

    def counting_init(self, fingerprints):
        counts["full"] += 1
        real_init(self, fingerprints)

    def recording_build(self, now):
        previous = getattr(self, "_last", None)
        consensus = real_build(self, now)
        counts["consensuses"] += 1
        authorities.add(id(self))
        if previous is None or not previous.hsdir_ring.same_members(
            consensus.hsdir_ring
        ):
            counts["membership_changed"] += 1
        return consensus

    monkeypatch.setattr(FingerprintRing, "__init__", counting_init)
    monkeypatch.setattr(DirectoryAuthoritySet, "build_consensus", recording_build)
    counts["authorities"] = authorities
    return counts


def test_cold_sec7_and_harvest_build_rings_from_diffs(ring_builds):
    run_sec7(seed=6, scale=0.1)
    run_harvest(seed=4, scale=0.02, ip_count=8, relays_per_ip=8, sweep_hours=4)
    assert ring_builds["consensuses"] > 100
    assert ring_builds["full"] <= ring_builds["membership_changed"]
    # One fresh ring per authority (its first consensus); every later ring
    # is derived from its predecessor or shared with it.
    assert ring_builds["full"] == len(ring_builds["authorities"])


def test_memo_bound_holds_through_a_table2_sweep(monkeypatch):
    """A table2 sweep with a tiny memo bound clears the memo over and over
    and still reproduces the pinned table2 text byte for byte."""
    limit = 32
    monkeypatch.setattr(ring_module, "LOOKUP_MEMO_LIMIT", limit)
    sizes = []
    real_responsible_for = FingerprintRing.responsible_for

    def watching(self, descriptor_id, count=3):
        answer = real_responsible_for(self, descriptor_id, count)
        if self._memo is not None:
            sizes.append(len(self._memo))
        return answer

    monkeypatch.setattr(FingerprintRing, "responsible_for", watching)
    text = cases.table2_artifact(workers=1) + "\n"
    assert text == (GOLDEN_DIR / "table2_small.txt").read_text(encoding="utf-8")
    assert len(sizes) > 10 * limit
    assert max(sizes) == limit


def test_memo_bound_holds_past_the_limit(network):
    """More distinct descriptor IDs than the bound, through the real fetch
    path: the memo never grows past ``LOOKUP_MEMO_LIMIT``."""
    network.publish_service(make_service(), network.clock.now)
    ring = network.consensus.hsdir_ring
    rng = random.Random(7)
    fetch_rng = random.Random(8)
    for _ in range(LOOKUP_MEMO_LIMIT + 500):
        network.fetch_descriptor_id(rng.randbytes(20), fetch_rng)
    assert ring._memo is not None
    assert 0 < len(ring._memo) <= LOOKUP_MEMO_LIMIT


def test_unchanged_hour_shares_the_previous_consensus(network):
    """An hour in which no relay changed reuses the entries tuple, the
    fingerprint index and the ring of the previous consensus."""
    first = network.consensus
    network.clock.advance_by(HOUR)
    second = network.rebuild_consensus()
    assert second.valid_after == first.valid_after + HOUR
    assert second.entries is first.entries
    assert second.fingerprint_index is first.fingerprint_index
    assert second.hsdir_ring is first.hsdir_ring
