"""Crash-resume equivalence on the real campaign.

The invariant the supervision plane exists to defend: a run that was
killed mid-campaign and resumed through store checkpoints produces
fig1/table1/fig2 reports **byte-identical** to a clean cold run that
never died.  The matrix here injects a death at every stage boundary,
at shard merges, and at both store commit points, across worker counts
and fault profiles, and byte-compares against clean baselines.
"""

import json

import pytest

from repro.cli import _campaign_document
from repro.experiments import pipeline as pipeline_module
from repro.experiments.pipeline import MeasurementPipeline
from repro.population.generator import generate_population
from repro.store import ArtifactStore
from repro.supervise import (
    LEDGER_APPEND,
    PIPELINE_STAGES,
    PMAP_SHARD,
    STORE_COMMIT,
    CrashPlan,
    CrashRule,
    EpochSupervisor,
    build_crash_plan,
    stage_enter,
    stage_exit,
)

SEED = 11
SCALE = 0.02

#: Every stage boundary of the standard campaign: 8 distinct labels.
BOUNDARIES = [stage_enter(s) for s in PIPELINE_STAGES] + [
    stage_exit(s) for s in PIPELINE_STAGES
]


def campaign_text(pipeline):
    """The byte string the equivalence claim is about."""
    return json.dumps(_campaign_document(pipeline), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def equivalence_population():
    return generate_population(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def clean_text(equivalence_population):
    """Per-(workers, fault_profile) clean cold baselines, computed once."""
    cache = {}

    def get(workers, fault_profile):
        key = (workers, fault_profile)
        if key not in cache:
            pipeline = MeasurementPipeline(
                seed=SEED,
                population=equivalence_population,
                workers=workers,
                fault_profile=fault_profile,
            )
            for stage in PIPELINE_STAGES:
                getattr(pipeline, stage)()
            cache[key] = campaign_text(pipeline)
        return cache[key]

    return get


@pytest.fixture()
def supervised(tmp_path, equivalence_population):
    """Run the campaign under a crash plan; returns the outcome."""

    def run(plan, workers=1, fault_profile="none"):
        store_root = tmp_path / "store"

        def factory(crash_points, quarantine):
            pipeline = MeasurementPipeline(
                seed=SEED,
                population=equivalence_population,
                workers=workers,
                fault_profile=fault_profile,
                store=ArtifactStore(store_root),
                crash_point=crash_points,
                quarantine=quarantine,
            )
            return pipeline

        return EpochSupervisor(plan).run(factory)

    return run


def single_crash_plan(label):
    return CrashPlan(seed=SEED, rules=(CrashRule(label, 1),), name="custom")


class TestStageBoundaryMatrix:
    @pytest.mark.parametrize("fault_profile", ["none", "moderate"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_crash_resume_is_byte_identical(
        self, supervised, clean_text, boundary, workers, fault_profile
    ):
        outcome = supervised(
            single_crash_plan(boundary),
            workers=workers,
            fault_profile=fault_profile,
        )
        manifest = outcome.manifest
        assert manifest.complete, manifest.summary_lines()
        assert manifest.restarts_used == 1
        assert [(e.point, e.visit) for e in manifest.crashes] == [(boundary, 1)]
        assert campaign_text(outcome.pipeline) == clean_text(workers, fault_profile)


class TestOtherCrashPoints:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_boundary_crash(self, supervised, clean_text, workers):
        outcome = supervised(single_crash_plan(PMAP_SHARD), workers=workers)
        assert outcome.manifest.complete
        assert outcome.crash_points.distinct_points() == (PMAP_SHARD,)
        assert campaign_text(outcome.pipeline) == clean_text(workers, "none")

    def test_repeated_store_commit_crashes(self, supervised, clean_text):
        plan = CrashPlan(
            seed=SEED,
            rules=(CrashRule(STORE_COMMIT, 1), CrashRule(STORE_COMMIT, 2)),
            name="custom",
        )
        outcome = supervised(plan)
        assert outcome.manifest.complete
        assert outcome.manifest.restarts_used == 2
        assert campaign_text(outcome.pipeline) == clean_text(1, "none")

    def test_ledger_append_crash(self, supervised, clean_text):
        outcome = supervised(single_crash_plan(LEDGER_APPEND))
        assert outcome.manifest.complete
        assert campaign_text(outcome.pipeline) == clean_text(1, "none")


class TestModerateProfileAcceptance:
    def test_survives_five_plus_crashes_at_distinct_points(
        self, supervised, clean_text
    ):
        # The ``repro crashtest`` acceptance bar, exercised in-process:
        # >= 5 injected deaths at >= 5 distinct stage/shard/commit labels
        # in one supervised run, final reports byte-identical.
        outcome = supervised(build_crash_plan("moderate", seed=SEED))
        manifest = outcome.manifest
        assert manifest.complete, manifest.summary_lines()
        assert outcome.crash_points.crash_count >= 5
        assert len(outcome.crash_points.distinct_points()) >= 5
        assert campaign_text(outcome.pipeline) == clean_text(1, "none")


class TestQuarantineDegradation:
    def test_poisoned_page_degrades_by_exactly_that_page(
        self,
        supervised,
        equivalence_population,
        language_detector,
        topic_classifier,
        monkeypatch,
    ):
        # Find a page to poison, then classify through a wrapper that
        # refuses it: the supervised run must finish with the page
        # quarantined and declared — never abort, never pretend.
        probe = MeasurementPipeline(
            seed=SEED, population=equivalence_population, fault_profile="none"
        )
        pages = probe.classifiable().pages
        target = pages[0].destination
        real_classify = pipeline_module._classify_page

        def poisoned(page, observer=None, *, detector, classifier):
            if page.destination == target:
                raise ValueError("poisoned page")
            return real_classify(
                page, observer, detector=detector, classifier=classifier
            )

        monkeypatch.setattr(pipeline_module, "_classify_page", poisoned)
        outcome = supervised(CrashPlan(seed=SEED, name="none"))
        manifest = outcome.manifest
        assert not manifest.complete
        assert not manifest.degraded  # stages all ran; only items are missing
        assert [s.status for s in manifest.stages] == ["complete"] * 4
        assert len(manifest.quarantined_items) == 1
        assert manifest.quarantined_items[0]["error"].startswith("ValueError")
        classification = outcome.pipeline.classify()
        assert classification.classified_pages == len(pages) - 1
        assert target not in classification.page_languages
        observer = outcome.pipeline.observer
        assert (
            observer.registry.counter("classify_pages_quarantined_total").value
            == 1
        )
