"""The epoch controller: supervised epochs, batch parity, warm resume."""

from repro.experiments.pipeline import MeasurementPipeline
from repro.experiments.table2_popularity import run_table2
from repro.service import VIEW_KINDS, epoch_run_id
from repro.service.results import build_views
from repro.store import ArtifactStore, digest_of
from repro.worldbuild import advance_epoch

from tests.conftest import (
    SERVICE_EPOCHS,
    SERVICE_SCALE,
    SERVICE_SEED,
    SERVICE_SWEEP_HOURS,
    make_service_controller,
    spy_on_world_builds,
)


def counter_total(observer, name, **labels):
    """Sum a counter across label sets matching ``labels``."""
    total = 0
    for metric_name, metric_labels, metric in observer.registry.items():
        if metric_name != name:
            continue
        attached = dict(metric_labels)
        if all(attached.get(key) == value for key, value in labels.items()):
            total += metric.value
    return total


class TestSupervisedEpochs:
    def test_runs_the_configured_number_of_epochs(self, service_controller):
        records = service_controller.records
        assert len(records) == SERVICE_EPOCHS
        assert [record.epoch for record in records] == [0, 1, 2]

    def test_every_epoch_completes_under_the_crash_schedule(
        self, service_controller
    ):
        for record in service_controller.records:
            assert record.manifest.complete
            # The moderate profile injects six crashes per epoch; each one
            # consumes a restart and the epoch still lands complete.
            assert record.crashes >= 5
            assert record.restarts == record.crashes

    def test_epochs_advance_the_world_deterministically(
        self, service_controller
    ):
        records = service_controller.records
        assert records[0].seed == SERVICE_SEED
        expected = [
            advance_epoch(SERVICE_SEED, SERVICE_SCALE, epoch).seed
            for epoch in range(SERVICE_EPOCHS)
        ]
        assert [record.seed for record in records] == expected
        # Derived epochs genuinely move the world.
        assert len(set(expected)) == SERVICE_EPOCHS

    def test_records_pin_epoch_run_ids_and_view_digests(
        self, service_controller
    ):
        for record in service_controller.records:
            assert record.run_id == epoch_run_id(record.epoch)
            assert set(record.views) == set(VIEW_KINDS)
            assert record.digests == {
                kind: digest_of(view) for kind, view in record.views.items()
            }

    def test_observer_exports_the_service_metrics(self, service_controller):
        observer = service_controller.observer
        assert counter_total(observer, "service_epochs_total") == SERVICE_EPOCHS
        assert counter_total(observer, "supervise_crashes_total") >= 15
        gauges = {
            name: metric.value
            for name, _labels, metric in observer.registry.items()
            if name == "service_current_epoch"
        }
        assert gauges["service_current_epoch"] == SERVICE_EPOCHS - 1

    def test_crash_restarts_resume_warm_within_each_epoch(
        self, service_controller
    ):
        # Each crash restart replays the completed stages from the store,
        # so the hit counter climbs well past the miss counter.
        observer = service_controller.observer
        hits = counter_total(observer, "store_hits_total")
        misses = counter_total(observer, "store_misses_total")
        assert misses >= SERVICE_EPOCHS  # every epoch computed something
        assert hits > misses


class TestBatchParity:
    def test_service_views_match_one_shot_batch_runs(self, service_controller):
        """The acceptance bar: every query view byte-identical to batch.

        Rebuilds each epoch's views from a fresh un-supervised, un-stored
        pipeline over the same advanced world and compares content
        digests (which are also the ETags the API serves).
        """
        prev_views = None
        for record in service_controller.records:
            world = advance_epoch(SERVICE_SEED, SERVICE_SCALE, record.epoch)
            pipeline = MeasurementPipeline(seed=world.seed, scale=world.scale)
            table2 = run_table2(
                seed=world.seed,
                population=pipeline.population,
                sweep_hours=SERVICE_SWEEP_HOURS,
            )
            batch_views = build_views(
                world,
                scan=pipeline.scan(),
                classification=pipeline.classify(),
                table2=table2,
                prev_views=prev_views,
            )
            for kind in VIEW_KINDS:
                assert digest_of(batch_views[kind]) == record.digests[kind], (
                    f"epoch {record.epoch} view {kind!r} diverged from the "
                    "one-shot batch run"
                )
            prev_views = batch_views


class TestWarmResume:
    def test_second_controller_over_same_store_recomputes_nothing(
        self, service_controller, service_store_root, monkeypatch
    ):
        ledger = ArtifactStore(service_store_root).ledger
        misses_before = sum(
            1 for entry in ledger.entries() if entry["event"] == "miss"
        )

        worlds = spy_on_world_builds(monkeypatch)
        warm = make_service_controller(service_store_root)
        warm.run()

        misses_after = sum(
            1 for entry in ledger.entries() if entry["event"] == "miss"
        )
        assert misses_after == misses_before
        # Every stage replays, so no epoch generates its population.
        assert worlds == []
        # Warm epochs land on the same bytes, and the hits show up in the
        # service observer (second-epoch warm hits are part of the
        # acceptance bar).
        for cold, hot in zip(service_controller.records, warm.records):
            assert cold.digests == hot.digests
        assert counter_total(warm.observer, "store_hits_total") >= 7
