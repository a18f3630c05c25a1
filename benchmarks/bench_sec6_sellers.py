"""Bench: §VI application — Silk Road seller identification by pattern."""

from conftest import save_report

from repro.experiments.sec6_sellers import run_sec6


def test_sec6_seller_identification(benchmark, report_dir):
    result = benchmark.pedantic(
        lambda: run_sec6(
            seed=0,
            honest_relays=800,
            attacker_guards=18,
            buyer_count=1500,
            seller_count=60,
            observation_days=7,
        ),
        rounds=1,
        iterations=1,
    )
    save_report(report_dir, "sec6_sellers", result.report.format())

    ident = result.identification
    benchmark.extra_info["sellers_identified"] = len(ident.identified_sellers)
    benchmark.extra_info["precision"] = round(ident.precision, 3)

    # The paper's claim: even a small capture footprint nails sellers.
    assert ident.true_positives >= 5
    assert ident.precision == 1.0  # buyers structurally cannot look periodic
    assert ident.captured_seller_recall >= 0.5
