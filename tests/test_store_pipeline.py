"""End-to-end checkpoint/resume equivalence through the real pipeline.

The store's contract: runs through a store — cold, warm, or mixed —
produce artifacts byte-identical to a run with no store at all.  The
hard case is mixed: stages share the transport's RNG stream, so a cache
hit must *restore* the post-stage cursor before the next cold stage
draws from it.
"""

import json

import pytest

from repro import codec
from repro.experiments.pipeline import MeasurementPipeline
from repro.store import ArtifactStore

SEED = 7
SCALE = 0.02


def canonical(data):
    return json.dumps(data, sort_keys=True)


def make_pipeline(store=None, profile="none"):
    return MeasurementPipeline(
        seed=SEED, scale=SCALE, fault_profile=profile, store=store
    )


@pytest.fixture(scope="module")
def storeless_outcome():
    """The reference: the full campaign with no store anywhere."""
    return make_pipeline().classify()


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory, storeless_outcome):
    """A store primed by one full cold campaign (classification returned)."""
    root = tmp_path_factory.mktemp("store") / "s"
    pipeline = make_pipeline(ArtifactStore(root))
    pipeline.certificates()
    cold = pipeline.classify()
    assert canonical(codec.encode(cold)) == canonical(
        codec.encode(storeless_outcome)
    )
    return root


class TestWarmEqualsCold:
    def test_warm_run_recomputes_nothing(self, warm_root, storeless_outcome):
        # Mirror the cold run's stage order: the transport cursor is part
        # of each key, so a warm run replays the same stage sequence.
        store = ArtifactStore(warm_root)
        pipeline = make_pipeline(store)
        pipeline.certificates()
        warm = pipeline.classify()
        summary = store.ledger.run_summaries()[-1]
        assert summary["misses"] == 0
        assert summary["hits"] == 4  # scan, certificates, crawl, classify
        assert canonical(codec.encode(warm)) == canonical(
            codec.encode(storeless_outcome)
        )

    def test_certificates_replay_too(self, warm_root):
        store = ArtifactStore(warm_root)
        pipeline = make_pipeline(store)
        analysis = pipeline.certificates()
        assert analysis.total_certificates > 0
        events = [e for e in store.ledger.entries() if e["run"] == store.run_id]
        assert all(e["event"] == "hit" for e in events)


class TestMixedWarmCold:
    def test_replayed_prefix_feeds_cold_suffix_identically(
        self, tmp_path_factory, storeless_outcome
    ):
        root = tmp_path_factory.mktemp("mixed") / "s"
        # First session checkpoints only the scan (a fig1-style run).
        make_pipeline(ArtifactStore(root)).scan()

        # Second session replays the scan from the store — restoring the
        # transport cursor — then computes crawl and classify cold.
        store = ArtifactStore(root)
        mixed = make_pipeline(store).classify()
        events = {
            e["stage"]: e["event"]
            for e in store.ledger.entries()
            if e["run"] == store.run_id
        }
        assert events == {"scan": "hit", "crawl": "miss", "classify": "miss"}
        assert canonical(codec.encode(mixed)) == canonical(
            codec.encode(storeless_outcome)
        )


class TestWorkerCount:
    def test_workers_key_separately_but_agree_byte_for_byte(self, warm_root):
        """The worker count is part of the key (a workers-8 run never
        replays a serial checkpoint), yet the artifacts are identical —
        the executor's worker-invariance carried into the store."""
        store = ArtifactStore(warm_root)
        pipeline = MeasurementPipeline(
            seed=SEED, scale=SCALE, fault_profile="none", workers=8, store=store
        )
        scan8 = pipeline.scan()
        events = [e for e in store.ledger.entries() if e["run"] == store.run_id]
        assert [e["event"] for e in events] == ["miss"]

        serial_object = next(
            e["object"]
            for e in store.ledger.entries()
            if e["stage"] == "scan" and e["event"] == "miss"
        )
        serial_artifact = store.cas.get(serial_object)["artifact"]
        assert canonical(codec.encode(scan8)) == canonical(serial_artifact)


class TestFaultedProfile:
    def test_warm_equals_cold_under_faults(self, tmp_path_factory):
        """Fault state (injection counters, retry RNG) rides the cursor."""
        root = tmp_path_factory.mktemp("faulted") / "s"
        cold = make_pipeline(ArtifactStore(root), profile="moderate").classify()

        store = ArtifactStore(root)
        warm = make_pipeline(store, profile="moderate").classify()
        assert store.ledger.run_summaries()[-1]["misses"] == 0
        assert canonical(codec.encode(warm)) == canonical(
            codec.encode(cold)
        )

    def test_fault_profile_is_part_of_the_key(self, warm_root):
        """A faulted run must never replay a fault-free artifact."""
        store = ArtifactStore(warm_root)
        make_pipeline(store, profile="moderate").scan()
        events = [e for e in store.ledger.entries() if e["run"] == store.run_id]
        assert [e["event"] for e in events] == ["miss"]
