"""Tests for repro.crypto.ring — the HSDir fingerprint ring."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair
from repro.crypto.ring import (
    HSDIRS_PER_REPLICA,
    RING_SIZE,
    FingerprintRing,
    responsible_positions,
    ring_distance,
)
from repro.errors import CryptoError


def make_fingerprints(count, seed=0):
    rng = random.Random(seed)
    return [KeyPair.generate(rng).fingerprint for _ in range(count)]


class TestRingDistance:
    def test_forward(self):
        assert ring_distance(1, 5) == 4

    def test_wraps(self):
        assert ring_distance(RING_SIZE - 1, 1) == 2

    def test_zero(self):
        assert ring_distance(7, 7) == 0

    @given(
        st.integers(min_value=0, max_value=RING_SIZE - 1),
        st.integers(min_value=0, max_value=RING_SIZE - 1),
    )
    def test_in_range(self, a, b):
        assert 0 <= ring_distance(a, b) < RING_SIZE

    @given(
        st.integers(min_value=0, max_value=RING_SIZE - 1),
        st.integers(min_value=0, max_value=RING_SIZE - 1),
    )
    def test_antisymmetric_sum(self, a, b):
        if a != b:
            assert ring_distance(a, b) + ring_distance(b, a) == RING_SIZE


class TestResponsiblePositions:
    def test_takes_the_following_points(self):
        points = [10, 20, 30, 40]
        assert responsible_positions(15, points) == [20, 30, 40]

    def test_exact_hit_excluded(self):
        # rend-spec: the descriptor goes to fingerprints *after* the ID.
        points = [10, 20, 30, 40]
        assert responsible_positions(20, points) == [30, 40, 10]

    def test_wraparound(self):
        points = [10, 20, 30]
        assert responsible_positions(35, points) == [10, 20, 30]

    def test_empty_ring(self):
        assert responsible_positions(5, []) == []

    def test_small_ring_truncates(self):
        assert responsible_positions(0, [5]) == [5]

    @settings(max_examples=60)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=RING_SIZE - 1),
            min_size=4,
            max_size=40,
            unique=True,
        ),
        st.integers(min_value=0, max_value=RING_SIZE - 1),
    )
    def test_properties(self, points, descriptor_point):
        points = sorted(points)
        result = responsible_positions(descriptor_point, points)
        # Exactly three, all distinct, all members.
        assert len(result) == HSDIRS_PER_REPLICA
        assert len(set(result)) == HSDIRS_PER_REPLICA
        assert all(p in points for p in result)
        # They are the three *closest* following points.
        by_distance = sorted(points, key=lambda p: ring_distance(descriptor_point, p))
        closest_following = [
            p for p in by_distance if ring_distance(descriptor_point, p) > 0
        ][:HSDIRS_PER_REPLICA]
        # On exact hit the point itself sorts at distance 0 and is skipped.
        assert set(result) == set(closest_following) or descriptor_point in points


class TestFingerprintRing:
    def test_len_and_contains(self):
        fps = make_fingerprints(10)
        ring = FingerprintRing(fps)
        assert len(ring) == 10
        assert fps[0] in ring
        assert make_fingerprints(1, seed=99)[0] not in ring

    def test_duplicate_fingerprints_collapse(self):
        fps = make_fingerprints(5)
        ring = FingerprintRing(fps + fps)
        assert len(ring) == 5

    def test_fingerprints_sorted_by_position(self):
        ring = FingerprintRing(make_fingerprints(20))
        positions = [int.from_bytes(fp, "big") for fp in ring.fingerprints]
        assert positions == sorted(positions)

    def test_responsible_for_returns_three(self):
        ring = FingerprintRing(make_fingerprints(50))
        desc_id = make_fingerprints(1, seed=7)[0]
        assert len(ring.responsible_for(desc_id)) == 3

    def test_average_gap_total(self):
        ring = FingerprintRing(make_fingerprints(64))
        assert ring.average_gap() == RING_SIZE // 64

    def test_average_gap_empty_ring_raises(self):
        with pytest.raises(CryptoError):
            FingerprintRing([]).average_gap()

    def test_positioning_ratio_for_adjacent_fingerprint(self):
        fps = make_fingerprints(100)
        ring = FingerprintRing(fps)
        desc_id = make_fingerprints(1, seed=5)[0]
        first_responsible = ring.responsible_for(desc_id)[0]
        ratio = ring.positioning_ratio(desc_id, first_responsible)
        assert ratio > 0

    def test_positioning_ratio_zero_distance_is_infinite(self):
        fps = make_fingerprints(10)
        ring = FingerprintRing(fps)
        assert ring.positioning_ratio(fps[0], fps[0]) == float("inf")

    def test_ground_key_beats_honest_relays(self):
        """A forged fingerprint just after the descriptor ID takes the first
        responsible slot — the Section VII attacker move."""
        rng = random.Random(4)
        fps = make_fingerprints(200)
        desc_id = make_fingerprints(1, seed=8)[0]
        point = int.from_bytes(desc_id, "big")
        forged = KeyPair.forge_near(rng, point, RING_SIZE // 200 // 1000)
        ring = FingerprintRing(fps + [forged.fingerprint])
        assert ring.responsible_for(desc_id)[0] == forged.fingerprint
        assert ring.positioning_ratio(desc_id, forged.fingerprint) >= 1000


class _AliasFingerprint(bytes):
    """Equal bytes, distinct identity: two such objects are different set
    members with the same ring position (the equal-position error case)."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


#: A pool of fingerprints the churn sequences join from and leave to.
POOL = make_fingerprints(48, seed=21)


def assert_same_ring(derived, fresh, queries):
    assert len(derived) == len(fresh)
    assert derived.fingerprints == fresh.fingerprints
    assert derived.positions == fresh.positions
    assert derived.same_members(fresh) and fresh.same_members(derived)
    for count in range(1, 5):
        expected = [fresh.responsible_for(query, count) for query in queries]
        assert fresh.responsible_for_many(queries, count) == expected
        assert derived.responsible_for_many(queries, count) == expected
        for _ in range(2):  # the second pass answers from the memo
            assert [derived.responsible_for(q, count) for q in queries] == expected


class TestDerive:
    """``derive`` (previous ring + membership diff) against a fresh ring."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(POOL), max_size=len(POOL)),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.binary(min_size=20, max_size=20), min_size=1, max_size=12),
    )
    def test_churn_sequence_matches_fresh(self, memberships, queries):
        """Random join/leave sequences (empty rings and full replacement
        included): every derived ring answers exactly as a fresh one."""
        ring = FingerprintRing([])
        for members in memberships:
            derived = ring.derive(members)
            assert_same_ring(derived, FingerprintRing(members), queries)
            if set(members) == set(ring.fingerprints):
                assert derived is ring
            ring = derived

    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_full_replacement(self, size):
        before, after = POOL[:size], POOL[size : 2 * size]
        derived = FingerprintRing(before).derive(after)
        assert_same_ring(derived, FingerprintRing(after), POOL[-4:])

    def test_equal_position_raises_like_fresh(self):
        alias = _AliasFingerprint(POOL[0])
        with pytest.raises(CryptoError):
            FingerprintRing(POOL[:3] + [alias])
        with pytest.raises(CryptoError):
            FingerprintRing(POOL[:3]).derive(POOL[:3] + [alias])

    def test_alias_replacing_its_original_is_not_an_error(self):
        alias = _AliasFingerprint(POOL[0])
        derived = FingerprintRing(POOL[:3]).derive([alias] + POOL[1:3])
        assert derived.positions == FingerprintRing(POOL[:3]).positions

    def test_unchanged_members_share_the_ring(self):
        ring = FingerprintRing(POOL[:10])
        assert ring.derive(reversed(POOL[:10])) is ring

    def test_derive_leaves_the_source_ring_alone(self):
        ring = FingerprintRing(POOL[:10])
        before = ring.fingerprints
        ring.derive(POOL[5:15])
        assert ring.fingerprints == before

    def test_derive_validates_joined_fingerprints(self):
        with pytest.raises(CryptoError):
            FingerprintRing(POOL[:3]).derive(POOL[:3] + [b"short"])


class TestLookupMemo:
    def test_mutating_an_answer_does_not_change_the_next(self):
        ring = FingerprintRing(POOL)
        desc_id = POOL[7]
        first = ring.responsible_for(desc_id)
        expected = list(first)
        first.reverse()
        first.append(b"\x00" * 20)
        assert ring.responsible_for(desc_id) == expected
        assert ring.responsible_for(desc_id) is not ring.responsible_for(desc_id)

    def test_only_the_last_queried_ring_keeps_a_memo(self):
        rings = [FingerprintRing(POOL[i : i + 10]) for i in range(5)]
        for ring in rings:
            ring.responsible_for(POOL[-1])
        assert [ring._memo is not None for ring in rings] == [False] * 4 + [True]


class TestDistanceTo:
    def test_equals_the_clockwise_ring_distance(self):
        fps = make_fingerprints(10)
        ring = FingerprintRing(fps)
        desc_id = make_fingerprints(1, seed=3)[0]
        for fp in fps:
            assert ring.distance_to(desc_id, fp) == ring_distance(
                int.from_bytes(desc_id, "big"), int.from_bytes(fp, "big")
            )

    def test_first_responsible_relay_is_the_nearest(self):
        ring = FingerprintRing(make_fingerprints(40))
        desc_id = make_fingerprints(1, seed=4)[0]
        nearest = ring.responsible_for(desc_id)[0]
        assert ring.distance_to(desc_id, nearest) == min(
            ring.distance_to(desc_id, fp) for fp in ring.fingerprints
        )

    def test_distance_to_itself_is_zero(self):
        fp = make_fingerprints(1)[0]
        assert FingerprintRing([fp]).distance_to(fp, fp) == 0


class TestSameMembers:
    def test_same_fingerprints_in_another_order(self):
        fps = make_fingerprints(12)
        assert FingerprintRing(fps).same_members(FingerprintRing(fps[::-1]))

    def test_one_member_more_differs(self):
        fps = make_fingerprints(12)
        assert not FingerprintRing(fps[:-1]).same_members(FingerprintRing(fps))


class TestResponsibleCount:
    def test_custom_count_takes_that_many_successors(self):
        ring = FingerprintRing(make_fingerprints(30))
        desc_id = make_fingerprints(1, seed=8)[0]
        five = ring.responsible_for(desc_id, count=5)
        assert len(five) == 5
        assert five[:HSDIRS_PER_REPLICA] == ring.responsible_for(desc_id)

    def test_many_matches_one_at_a_time(self):
        ring = FingerprintRing(make_fingerprints(30))
        desc_ids = make_fingerprints(8, seed=9)
        assert ring.responsible_for_many(desc_ids, count=4) == [
            ring.responsible_for(desc_id, count=4) for desc_id in desc_ids
        ]
