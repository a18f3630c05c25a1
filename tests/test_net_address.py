"""Tests for repro.net.address."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressExhaustedError, NetworkError
from repro.net.address import AddressPool, ip_to_str, str_to_ip


class TestConversions:
    def test_known_value(self):
        assert ip_to_str(0xC0A80001) == "192.168.0.1"

    def test_parse_known_value(self):
        assert str_to_ip("10.0.0.1") == 0x0A000001

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, ip):
        assert str_to_ip(ip_to_str(ip)) == ip

    def test_out_of_range_rejected(self):
        with pytest.raises(NetworkError):
            ip_to_str(1 << 32)

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            ip_to_str(-1)

    @pytest.mark.parametrize(
        "text", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "-1.0.0.0", ""]
    )
    def test_bad_strings_rejected(self, text):
        with pytest.raises(NetworkError):
            str_to_ip(text)


class TestAddressPool:
    def test_allocates_unique(self):
        pool = AddressPool(random.Random(0))
        addresses = pool.allocate_many(1000)
        assert len(set(addresses)) == 1000

    def test_avoids_reserved_prefixes(self):
        pool = AddressPool(random.Random(0))
        for ip in pool.allocate_many(500):
            assert (ip >> 24) not in {0, 10, 127, 169, 172, 192, 224, 240, 255}

    def test_deterministic_per_seed(self):
        a = AddressPool(random.Random(7)).allocate_many(10)
        b = AddressPool(random.Random(7)).allocate_many(10)
        assert a == b

    def test_allocated_count(self):
        pool = AddressPool(random.Random(0))
        pool.allocate_many(3)
        assert pool.allocated_count == 3

    def test_negative_count_rejected(self):
        pool = AddressPool(random.Random(0))
        with pytest.raises(NetworkError):
            pool.allocate_many(-1)


class ConstantBits:
    """An rng stand-in whose every draw is the same 32-bit value."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, bits):
        return self.value


class TestExhaustion:
    def test_only_reserved_draws_exhaust_the_pool(self):
        pool = AddressPool(ConstantBits(0x0A000001))  # always 10.0.0.1
        with pytest.raises(AddressExhaustedError):
            pool.allocate()
        assert pool.allocated_count == 0

    def test_repeated_draws_exhaust_after_the_first(self):
        pool = AddressPool(ConstantBits(0x01020304))
        assert pool.allocate() == 0x01020304
        with pytest.raises(AddressExhaustedError):
            pool.allocate()
        assert pool.allocated_count == 1
