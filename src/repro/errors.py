"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class CryptoError(ReproError):
    """Invalid key material, onion address, or descriptor-identifier input."""


class NetworkError(ReproError):
    """Simulated network failure that is not an expected connection outcome."""


class AddressExhaustedError(NetworkError):
    """The simulated IPv4 address pool has no more addresses to allocate."""


class ConsensusError(ReproError):
    """Consensus construction or history analysis failed."""


class DescriptorError(ReproError):
    """A hidden-service descriptor is malformed or cannot be (un)published."""


class AttackError(ReproError):
    """A measurement attack (trawl / tracking) was configured incorrectly."""


class ClassificationError(ReproError):
    """A classifier was used before training or trained on invalid input."""


class PopulationError(ReproError):
    """The synthetic hidden-service population spec is infeasible."""


class ConfigError(ReproError):
    """A caller-supplied parameter or configuration file is invalid."""


class CrawlError(ReproError):
    """A crawl-result lookup or crawl configuration failed."""


class FaultConfigError(ConfigError):
    """A fault-injection plan, rule, or profile is invalid."""


class RetryExhaustedError(NetworkError):
    """A retried network operation failed on every permitted attempt."""

    def __init__(self, message: str, attempts: int = 0, last_outcome: str = ""):
        super().__init__(message)
        #: Connection attempts made before giving up.
        self.attempts = attempts
        #: ``ConnectOutcome.value`` of the final attempt, when known.
        self.last_outcome = last_outcome


class ParallelError(ReproError):
    """The deterministic parallel executor was configured incorrectly."""


class StoreError(ReproError):
    """The artifact store was configured or used incorrectly."""


class StoreCorruptionError(StoreError):
    """A stored artifact's bytes no longer match its content address."""

    def __init__(self, message: str, digest: str = ""):
        super().__init__(message)
        #: Content address of the damaged object, when known.
        self.digest = digest


class ObservabilityError(ReproError):
    """A metric, span, or snapshot in repro.obs was used incorrectly."""


class SupervisionError(ReproError):
    """A crash plan, restart policy, or deadline budget is invalid."""


class ServiceError(ReproError):
    """The measurement service (epoch controller or query API) failed."""


class ServiceSchemaError(ServiceError):
    """A service response envelope does not match the documented schema."""


class SimulatedCrashError(BaseException):
    """An injected process death (crash-point testing, repro.supervise).

    Deliberately **not** a :class:`ReproError`: a real crash (SIGKILL, OOM,
    power loss) cannot be caught by ordinary error handling, so the
    simulated one must sail past every ``except ReproError`` / ``except
    Exception`` in the tree exactly the way the real thing would.  Only the
    supervision plane (``repro.supervise``) may catch it — source check
    REP014 (``tests/test_source_checks.py``) enforces that.
    """

    def __init__(self, point: str = "", visit: int = 0):
        super().__init__(
            f"simulated crash at point {point!r} (visit {visit})"
            if point
            else "simulated crash"
        )
        #: The crash-point label where the injected death fired.
        self.point = point
        #: The 1-based visit count at which the rule fired.
        self.visit = visit
