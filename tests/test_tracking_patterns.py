"""Tests for repro.tracking.patterns and the §VI seller experiment."""

import pytest

from repro.errors import AttackError
from repro.sim.clock import DAY, HOUR
from repro.tracking.deanon import CapturedClient
from repro.tracking.patterns import (
    SellerCriteria,
    SellerIdentification,
    VisitPattern,
    classify_visitors,
    patterns_from_captures,
)


def capture(ip, t):
    return CapturedClient(
        time=t, client_ip=ip, descriptor_id=b"\x01" * 20, guard_fingerprint=b"g" * 20
    )


class TestVisitPattern:
    def test_counts(self):
        pattern = VisitPattern(client_ip=1, visit_times=[0, HOUR, DAY, DAY + HOUR])
        assert pattern.visits == 4
        assert pattern.active_days() == 2
        assert pattern.visits_per_active_day() == 2.0

    def test_regularity_of_clockwork(self):
        pattern = VisitPattern(client_ip=1, visit_times=[i * 6 * HOUR for i in range(10)])
        assert pattern.regularity() > 0.95

    def test_regularity_of_sporadic(self):
        pattern = VisitPattern(
            client_ip=1, visit_times=[0, HOUR, 9 * DAY, 9 * DAY + 10]
        )
        assert pattern.regularity() < 0.3

    def test_regularity_needs_three_visits(self):
        assert VisitPattern(client_ip=1, visit_times=[0, DAY]).regularity() == 0.0

    def test_empty_pattern(self):
        pattern = VisitPattern(client_ip=1, visit_times=[])
        assert pattern.visits_per_active_day() == 0.0


class TestClassification:
    def test_seller_and_buyer_split(self):
        captures = []
        # Seller: 2 visits/day for 5 days.
        for day in range(5):
            captures.append(capture(0xAA, day * DAY + 9 * HOUR))
            captures.append(capture(0xAA, day * DAY + 18 * HOUR))
        # Buyer: one visit.
        captures.append(capture(0xBB, 2 * DAY))
        patterns = patterns_from_captures(captures)
        sellers, buyers = classify_visitors(patterns)
        assert sellers == [0xAA]
        assert buyers == [0xBB]

    def test_criteria_validation(self):
        with pytest.raises(AttackError):
            SellerCriteria(min_active_days=0)
        with pytest.raises(AttackError):
            SellerCriteria(min_regularity=2.0)

    def test_regularity_gate_optional(self):
        captures = [capture(0xCC, t) for t in (0, DAY, DAY + 1, 2 * DAY, 4 * DAY)]
        patterns = patterns_from_captures(captures)
        strict = SellerCriteria(min_regularity=0.9)
        sellers, _ = classify_visitors(patterns, strict)
        assert sellers == []
        lax = SellerCriteria(min_regularity=0.0)
        sellers, _ = classify_visitors(patterns, lax)
        assert sellers == [0xCC]


class TestSellerIdentificationScoring:
    def test_precision_and_recall(self):
        ident = SellerIdentification(
            identified_sellers=[1, 2, 9],
            identified_buyers=[3, 4],
            true_sellers=frozenset({1, 2, 3}),
            observation_days=7,
        )
        assert ident.true_positives == 2
        assert ident.precision == pytest.approx(2 / 3)
        # captured sellers = {1, 2, 3}; flagged correctly = {1, 2}
        assert ident.captured_seller_recall == pytest.approx(2 / 3)

    def test_empty(self):
        ident = SellerIdentification(
            identified_sellers=[],
            identified_buyers=[],
            true_sellers=frozenset({1}),
            observation_days=7,
        )
        assert ident.precision == 0.0
        assert ident.captured_seller_recall == 0.0


class TestSec6Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.sec6_sellers import run_sec6

        return run_sec6(
            seed=2,
            honest_relays=250,
            buyer_count=300,
            seller_count=25,
            observation_days=7,
        )

    def test_sellers_identified_with_perfect_precision(self, result):
        ident = result.identification
        assert ident.true_positives >= 3
        assert ident.precision == 1.0

    def test_most_capturable_sellers_flagged(self, result):
        assert result.identification.captured_seller_recall >= 0.5

    def test_buyers_not_flagged(self, result):
        flagged_buyers = [
            ip
            for ip in result.identification.identified_sellers
            if ip not in result.identification.true_sellers
        ]
        assert flagged_buyers == []
