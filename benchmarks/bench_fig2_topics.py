"""Bench: regenerate Fig 2 (topic distribution) + §IV language stats."""

from conftest import record_phase_timings, save_report, save_span_report

from repro.analysis.stats import l1_distance, share_table
from repro.experiments.fig2_topics import run_fig2
from repro.population.spec import TOPIC_SHARES


def test_fig2_topic_distribution(benchmark, full_pipeline, report_dir):
    result = benchmark.pedantic(
        lambda: run_fig2(pipeline=full_pipeline), rounds=1, iterations=1
    )
    text = result.report.format() + "\n\n" + result.format_figure()
    save_report(report_dir, "fig2_topics", text)
    # fig2 runs last of the shared pipeline's stages: its span report shows
    # the whole campaign (scan, certificates, crawl, classify).
    save_span_report(report_dir, "fig2_topics", full_pipeline.observer)
    record_phase_timings(benchmark, full_pipeline.observer)

    outcome = result.outcome
    benchmark.extra_info["english_fraction"] = round(outcome.english_fraction, 4)
    benchmark.extra_info["languages"] = len(outcome.language_counts)

    # Language shape: 84% English, 17 languages, others < 3% each.
    assert 0.80 <= outcome.english_fraction <= 0.89
    assert len(outcome.language_counts) == 17
    shares = share_table(outcome.language_counts)
    for language, share in shares.items():
        if language != "en":
            assert share < 0.03

    # Topic shape: within a few percent of Fig 2 overall; top-2 categories
    # are Adult and Drugs; the illegal cluster ≈ 44%.
    measured = share_table(outcome.topic_counts)
    planted = {topic: share / 100 for topic, share in TOPIC_SHARES.items()}
    assert l1_distance(measured, planted) < 0.08
    ordered = sorted(measured, key=measured.get, reverse=True)
    assert set(ordered[:2]) == {"adult", "drugs"}
    illegal = sum(
        measured.get(t, 0) for t in ("adult", "drugs", "counterfeit", "weapon")
    )
    assert 0.38 <= illegal <= 0.50  # paper: 44%
