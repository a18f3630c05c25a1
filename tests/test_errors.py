"""Tests for repro.errors — the library's exception hierarchy."""

import inspect

import pytest

from repro import errors
from repro.errors import (
    AddressExhaustedError,
    NetworkError,
    ReproError,
    SimulatedCrashError,
    StoreCorruptionError,
    StoreError,
)


def library_exceptions():
    return [
        cls
        for _name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    ]


class TestHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        outside = [
            cls.__name__
            for cls in library_exceptions()
            if not issubclass(cls, ReproError)
        ]
        assert outside == ["SimulatedCrashError"]

    def test_simulated_crash_sails_past_except_exception(self):
        with pytest.raises(SimulatedCrashError):
            try:
                raise SimulatedCrashError("scan", 2)
            except Exception:  # the handler a real crash would also skip
                pytest.fail("a simulated crash was caught as an Exception")

    def test_simulated_crash_names_its_point_and_visit(self):
        crash = SimulatedCrashError("crawl", 3)
        assert (crash.point, crash.visit) == ("crawl", 3)
        assert str(crash) == "simulated crash at point 'crawl' (visit 3)"
        assert str(SimulatedCrashError()) == "simulated crash"

    def test_store_corruption_keeps_the_digest(self):
        error = StoreCorruptionError("bad bytes", digest="ab" * 32)
        assert isinstance(error, StoreError)
        assert error.digest == "ab" * 32
        assert str(error) == "bad bytes"

    def test_address_exhaustion_is_a_network_error(self):
        assert issubclass(AddressExhaustedError, NetworkError)
