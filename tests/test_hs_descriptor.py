"""Tests for repro.hs.descriptor."""

import random
from types import SimpleNamespace

import pytest

from repro.crypto.descriptor_id import REPLICAS, descriptor_id
from repro.crypto.keys import KeyPair
from repro.errors import DescriptorError
from repro.hs.descriptor import (
    HSDescriptor,
    make_descriptors,
    make_stored_descriptors,
)
from repro.sim.clock import DAY, parse_date

FEB4 = parse_date("2013-02-04")
KEYPAIR = KeyPair.generate(random.Random(1))


class TestMakeDescriptors:
    def test_one_per_replica(self):
        descriptors = make_descriptors(KEYPAIR, FEB4)
        assert len(descriptors) == REPLICAS
        assert {d.replica for d in descriptors} == set(range(REPLICAS))

    def test_ids_match_crypto_layer(self):
        descriptors = make_descriptors(KEYPAIR, FEB4)
        for descriptor in descriptors:
            assert descriptor.descriptor_id == descriptor_id(
                descriptor.onion, FEB4, descriptor.replica
            )

    def test_carries_key_material(self):
        for descriptor in make_descriptors(KEYPAIR, FEB4):
            assert descriptor.public_der == KEYPAIR.public_der


class TestVerify:
    def test_fresh_descriptor_verifies(self):
        for descriptor in make_descriptors(KEYPAIR, FEB4):
            assert descriptor.verify()

    def test_wrong_onion_fails(self):
        descriptor = make_descriptors(KEYPAIR, FEB4)[0]
        forged = HSDescriptor(
            onion="aaaaaaaaaaaaaaaa.onion",
            descriptor_id=descriptor.descriptor_id,
            replica=descriptor.replica,
            public_der=descriptor.public_der,
            published_at=descriptor.published_at,
        )
        assert not forged.verify()

    def test_stale_id_fails(self):
        descriptor = make_descriptors(KEYPAIR, FEB4)[0]
        stale = HSDescriptor(
            onion=descriptor.onion,
            descriptor_id=descriptor.descriptor_id,
            replica=descriptor.replica,
            public_der=descriptor.public_der,
            published_at=descriptor.published_at + 2 * DAY,
        )
        assert not stale.verify()


class TestToStored:
    def test_conversion_preserves_fields(self):
        descriptor = make_descriptors(KEYPAIR, FEB4)[0]
        stored = descriptor.to_stored()
        assert stored.descriptor_id == descriptor.descriptor_id
        assert stored.public_der == descriptor.public_der
        assert stored.replica == descriptor.replica
        assert stored.published_at == descriptor.published_at


class TestMakeStoredDescriptors:
    """The publish path's direct build against make_descriptors + to_stored."""

    @pytest.mark.parametrize("pass_ids", [False, True])
    def test_equals_converted_descriptors(self, pass_ids):
        ids = (
            [descriptor_id("x" * 16 + ".onion", FEB4, r) for r in range(REPLICAS)]
            if pass_ids
            else None
        )
        expected = [
            d.to_stored() for d in make_descriptors(KEYPAIR, FEB4 + 7, ids)
        ]
        assert make_stored_descriptors(KEYPAIR, FEB4 + 7, ids) == expected

    @pytest.mark.parametrize("build", [make_descriptors, make_stored_descriptors])
    def test_needs_key_material(self, build):
        keyless = SimpleNamespace(public_der=b"")  # KeyPair itself refuses b""
        with pytest.raises(DescriptorError):
            build(keyless, FEB4)
