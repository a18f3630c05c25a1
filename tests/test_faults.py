"""Tests for repro.faults: plans, the injecting transport, retry, profiles.

The fault plane's contract is the repo's contract: every injected fault is
a pure function of ``(seed, rule kind, onion, port, attempt)``, so a faulted
run replays byte-identically at any worker count.  These tests pin the
decision functions, the transport wrapper's bookkeeping, the retry
semantics (which outcomes retry, which are final), and the profile switch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultConfigError, RetryExhaustedError
from repro.faults.plan import (
    CircuitTimeoutFault,
    DescriptorFlapFault,
    FaultPlan,
    HSDirOutageFault,
    SlowCircuitFault,
    TruncationFault,
)
from repro.faults import profiles
from repro.faults.profiles import (
    build_fault_plan,
    default_retry_policy,
    resolve_fault_profile,
)
from repro.faults.retry import (
    RetryPolicy,
    connect_with_retry,
    fetch_descriptor_with_retry,
)
from repro.faults.taxonomy import FailureCategory, FailureTaxonomy
from repro.faults.transport import FaultInjectingTransport, wrap_transport
from repro.net.endpoint import ConnectOutcome, ConnectResult
from repro.runconfig import PROFILES

ONION = "abcdefghijklmnop.onion"


def _result(outcome, port=80, **kwargs):
    return ConnectResult(outcome=outcome, port=port, **kwargs)


class ScriptedTransport:
    """Returns a fixed sequence of ConnectResults; records every call."""

    def __init__(self, script, descriptor=True):
        self.script = list(script)
        self.descriptor = descriptor
        self.attempts = 0
        self.connects = []
        self.fetches = 0

    def connect(self, onion, port, now):
        self.attempts += 1
        self.connects.append((onion, port, now))
        return self.script.pop(0)

    def has_descriptor(self, onion, now):
        self.fetches += 1
        if isinstance(self.descriptor, list):
            return self.descriptor.pop(0)
        return self.descriptor

    def scan_ports(self, onion, ports, now):
        return {
            result.port: result
            for result in (self.connect(onion, port, now) for port in sorted(ports))
        }


class TestRuleValidation:
    def test_rates_bounded(self):
        with pytest.raises(FaultConfigError):
            CircuitTimeoutFault(rate=1.5)
        with pytest.raises(FaultConfigError):
            DescriptorFlapFault(rate=-0.1)
        with pytest.raises(FaultConfigError):
            TruncationFault(rate=2.0)

    def test_burst_length_bounded_by_period(self):
        with pytest.raises(FaultConfigError):
            CircuitTimeoutFault(rate=0.1, burst_period=100, burst_length=101)

    def test_outage_duration_bounded_by_period(self):
        with pytest.raises(FaultConfigError):
            HSDirOutageFault(affected_fraction=0.1, period=3600, duration=3601)

    def test_slow_circuit_needs_positive_latency(self):
        with pytest.raises(FaultConfigError):
            SlowCircuitFault(rate=0.1, extra_latency=0)

    def test_plan_rejects_non_rules(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(seed=0, rules=("not a rule",))


class TestBurstWindows:
    def test_rate_switches_inside_the_window(self):
        rule = CircuitTimeoutFault(
            rate=0.05, burst_rate=0.9, burst_period=100, burst_length=10
        )
        assert rule.rate_at(0) == 0.9
        assert rule.rate_at(9) == 0.9
        assert rule.rate_at(10) == 0.05
        assert rule.rate_at(99) == 0.05
        assert rule.rate_at(105) == 0.9  # next period's window

    def test_zero_length_burst_never_fires(self):
        rule = CircuitTimeoutFault(rate=0.05, burst_rate=0.9, burst_length=0)
        assert rule.rate_at(0) == 0.05


class TestHSDirOutageWindows:
    RULE = HSDirOutageFault(affected_fraction=1.0, period=1000, duration=100)

    def test_window_index(self):
        assert self.RULE.window_of(50) == 0
        assert self.RULE.window_of(500) == -1
        assert self.RULE.window_of(1050) == 1

    def test_whole_window_is_out_for_the_affected_onion(self):
        plan = FaultPlan(seed=3, rules=(self.RULE,))
        # affected_fraction=1.0: every onion is out, on every attempt,
        # for the full duration of the window.
        for attempt in (1, 2, 5):
            assert plan.descriptor_unavailable(ONION, attempt, 10)
            assert plan.descriptor_unavailable(ONION, attempt, 90)
        assert not plan.descriptor_unavailable(ONION, 1, 500)

    def test_affected_set_redraws_per_window(self):
        rule = HSDirOutageFault(affected_fraction=0.5, period=1000, duration=100)
        plan = FaultPlan(seed=3, rules=(rule,))
        onions = [f"onion{i:016d}.onion" for i in range(200)]
        first = {o for o in onions if plan.descriptor_unavailable(o, 1, 10)}
        second = {o for o in onions if plan.descriptor_unavailable(o, 1, 1010)}
        assert 0 < len(first) < len(onions)
        assert first != second


class TestFaultPlanDeterminism:
    def test_decisions_are_pure_functions_of_identity(self):
        rules = (
            CircuitTimeoutFault(rate=0.5),
            TruncationFault(rate=0.5),
            SlowCircuitFault(rate=0.5, extra_latency=30),
        )
        a = FaultPlan(seed=7, rules=rules)
        b = FaultPlan(seed=7, rules=rules)
        for port in (22, 80, 443):
            for attempt in (1, 2, 3):
                args = (ONION, port, attempt, 0)
                assert a.circuit_timeout(*args) == b.circuit_timeout(*args)
                assert a.truncates(*args) == b.truncates(*args)
                assert a.extra_latency(*args) == b.extra_latency(*args)

    def test_seed_changes_the_draws(self):
        rules = (CircuitTimeoutFault(rate=0.5),)
        a = FaultPlan(seed=7, rules=rules)
        b = FaultPlan(seed=8, rules=rules)
        onions = [f"onion{i:016d}.onion" for i in range(100)]
        hits_a = {o for o in onions if a.circuit_timeout(o, 80, 1, 0)}
        hits_b = {o for o in onions if b.circuit_timeout(o, 80, 1, 0)}
        assert hits_a != hits_b

    def test_attempt_changes_the_draw(self):
        # A retry is a fresh draw, not a replay of the failed one.
        plan = FaultPlan(seed=7, rules=(CircuitTimeoutFault(rate=0.5),))
        onions = [f"onion{i:016d}.onion" for i in range(100)]
        first = {o for o in onions if plan.circuit_timeout(o, 80, 1, 0)}
        second = {o for o in onions if plan.circuit_timeout(o, 80, 2, 0)}
        assert first != second

    def test_inactive_plan(self):
        assert not FaultPlan(seed=0).active
        assert FaultPlan(seed=0, rules=(TruncationFault(rate=0.0),)).active


class TestFaultInjectingTransport:
    def test_wrap_transport_passes_through_inert_plans(self):
        inner = ScriptedTransport([])
        assert wrap_transport(inner, FaultPlan(seed=0)) is inner
        wrapped = wrap_transport(inner, build_fault_plan("light"))
        assert isinstance(wrapped, FaultInjectingTransport)
        assert wrapped.plan.name == "light"

    def test_certain_circuit_timeout_never_reaches_the_inner_transport(self):
        inner = ScriptedTransport([])
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=0, rules=(CircuitTimeoutFault(rate=1.0),))
        )
        result = transport.connect(ONION, 80, 0)
        assert result.outcome is ConnectOutcome.TIMEOUT
        assert "injected" in result.error_message
        assert inner.attempts == 0
        assert transport.injected == 1
        assert transport.attempts == 1  # inner attempts + injected

    def test_certain_flap_makes_the_service_unreachable(self):
        inner = ScriptedTransport([], descriptor=True)
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=0, rules=(DescriptorFlapFault(rate=1.0),))
        )
        assert not transport.has_descriptor(ONION, 0)
        assert inner.fetches == 0
        result = transport.connect(ONION, 80, 0)
        assert result.outcome is ConnectOutcome.UNREACHABLE
        assert transport.scan_ports(ONION, [80, 443], 0) == {}

    def test_truncation_halves_the_banner(self):
        inner = ScriptedTransport(
            [_result(ConnectOutcome.OPEN, banner="HTTP/1.0 200 OK")]
        )
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=0, rules=(TruncationFault(rate=1.0),))
        )
        result = transport.connect(ONION, 80, 0)
        assert result.outcome is ConnectOutcome.OPEN
        assert result.truncated
        assert result.banner == "HTTP/1.0 200 OK"[: len("HTTP/1.0 200 OK") // 2]
        assert "injected" in result.error_message
        assert not result.ok

    def test_truncation_spares_non_open_results(self):
        inner = ScriptedTransport([_result(ConnectOutcome.REFUSED)])
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=0, rules=(TruncationFault(rate=1.0),))
        )
        result = transport.connect(ONION, 80, 0)
        assert result.outcome is ConnectOutcome.REFUSED
        assert not result.truncated

    def test_slow_circuit_adds_latency(self):
        inner = ScriptedTransport([_result(ConnectOutcome.OPEN)])
        transport = FaultInjectingTransport(
            inner,
            FaultPlan(seed=0, rules=(SlowCircuitFault(rate=1.0, extra_latency=45),)),
        )
        assert transport.connect(ONION, 80, 0).latency == 45

    def test_scan_ports_injects_per_port(self):
        inner = ScriptedTransport(
            [_result(ConnectOutcome.OPEN, port=22), _result(ConnectOutcome.OPEN, port=80)]
        )
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=0, rules=(CircuitTimeoutFault(rate=1.0),))
        )
        results = transport.scan_ports(ONION, [80, 22], 0)
        assert set(results) == {22, 80}
        assert all(
            r.outcome is ConnectOutcome.TIMEOUT for r in results.values()
        )

    def test_attempt_counters_advance_per_endpoint(self):
        plan = FaultPlan(seed=0, rules=(TruncationFault(rate=0.0),))
        transport = FaultInjectingTransport(ScriptedTransport([]), plan)
        assert transport._next_probe(ONION, 80) == 1
        assert transport._next_probe(ONION, 80) == 2
        assert transport._next_probe(ONION, 443) == 1  # per-port counter


class TestProfiles:
    def test_every_shared_profile_name_is_defined(self):
        assert tuple(profiles._PROFILES) == PROFILES

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "heavy")
        assert resolve_fault_profile("light") == "light"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "moderate")
        assert resolve_fault_profile() == "moderate"
        monkeypatch.delenv("REPRO_FAULTS")
        assert resolve_fault_profile() == "none"

    def test_names_are_normalised(self):
        assert resolve_fault_profile("  Moderate ") == "moderate"

    def test_unknown_profile_rejected(self):
        with pytest.raises(FaultConfigError):
            resolve_fault_profile("catastrophic")

    def test_plan_construction(self):
        assert not build_fault_plan("none").active
        plan = build_fault_plan("moderate", seed=5)
        assert plan.active
        assert plan.name == "moderate"
        assert plan.seed == 5

    def test_retry_budget_scales_with_severity(self):
        assert default_retry_policy("none") is None
        assert default_retry_policy("light").max_attempts == 2
        assert default_retry_policy("moderate").max_attempts == 3
        assert default_retry_policy("heavy").max_attempts == 4


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": 0},
            {"backoff_factor": 0.5},
            {"max_delay": 1, "base_delay": 2},
            {"jitter": 1.0},
            {"descriptor_refetches": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(FaultConfigError):
            RetryPolicy(**kwargs)

    def test_no_delay_precedes_the_first_attempt(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy().base_backoff(1)


class TestRetryPolicyProperties:
    @given(attempt=st.integers(min_value=2, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_base_backoff_monotone_and_capped(self, attempt):
        policy = RetryPolicy(base_delay=2, backoff_factor=2.0, max_delay=600)
        assert policy.base_backoff(attempt) <= policy.base_backoff(attempt + 1)
        assert policy.base_backoff(attempt) <= policy.max_delay

    @given(
        attempt=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        port=st.integers(min_value=1, max_value=65535),
    )
    @settings(max_examples=100, deadline=None)
    def test_jitter_stays_within_the_band(self, attempt, seed, port):
        policy = RetryPolicy(seed=seed)
        base = policy.base_backoff(attempt)
        delay = policy.delay_before(attempt, ONION, port)
        assert base * (1 - policy.jitter) - 1 <= delay <= base * (1 + policy.jitter) + 1
        assert delay >= 1

    @given(
        attempt=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_jittered_delays_stay_monotone_below_the_cap(self, attempt, seed):
        # jitter=0.25 < (factor-1)/(factor+1): consecutive jitter bands
        # cannot overlap, so the schedule is increasing until the cap.
        policy = RetryPolicy(seed=seed)
        assert policy.base_backoff(attempt + 1) < policy.max_delay
        assert policy.delay_before(attempt, ONION, 80) <= policy.delay_before(
            attempt + 1, ONION, 80
        )

    @given(
        attempt=st.integers(min_value=2, max_value=12),
        port=st.integers(min_value=1, max_value=65535),
    )
    @settings(max_examples=50, deadline=None)
    def test_delay_is_deterministic_per_probe(self, attempt, port):
        a = RetryPolicy(seed=9)
        b = RetryPolicy(seed=9)
        assert a.delay_before(attempt, ONION, port) == b.delay_before(
            attempt, ONION, port
        )

    @given(max_attempts=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_attempts_never_exceed_the_bound(self, max_attempts):
        policy = RetryPolicy(max_attempts=max_attempts)
        transport = ScriptedTransport(
            [_result(ConnectOutcome.TIMEOUT)] * max_attempts
        )
        outcome = connect_with_retry(transport, ONION, 80, 0, policy)
        assert outcome.attempts == max_attempts
        assert outcome.category is FailureCategory.RETRIES_EXHAUSTED

    def test_retryable_outcomes(self):
        policy = RetryPolicy()
        assert policy.retryable(_result(ConnectOutcome.TIMEOUT))
        assert policy.retryable(_result(ConnectOutcome.OPEN, truncated=True))
        assert not policy.retryable(_result(ConnectOutcome.OPEN))
        assert not policy.retryable(_result(ConnectOutcome.REFUSED))
        assert not policy.retryable(_result(ConnectOutcome.UNREACHABLE))


class TestConnectWithRetry:
    POLICY = RetryPolicy(max_attempts=3, seed=1)

    def test_clean_success_has_no_category(self):
        transport = ScriptedTransport([_result(ConnectOutcome.OPEN)])
        outcome = connect_with_retry(transport, ONION, 80, 100, self.POLICY)
        assert outcome.attempts == 1
        assert outcome.category is None
        assert not outcome.recovered
        assert outcome.finished_at == 100

    def test_timeout_then_open_is_transient_recovered(self):
        transport = ScriptedTransport(
            [_result(ConnectOutcome.TIMEOUT), _result(ConnectOutcome.OPEN)]
        )
        outcome = connect_with_retry(transport, ONION, 80, 100, self.POLICY)
        assert outcome.attempts == 2
        assert outcome.recovered
        assert outcome.finished_at > 100  # the backoff advanced the clock

    def test_refused_is_immediately_permanent(self):
        transport = ScriptedTransport([_result(ConnectOutcome.REFUSED)])
        outcome = connect_with_retry(transport, ONION, 80, 0, self.POLICY)
        assert outcome.attempts == 1
        assert outcome.category is FailureCategory.PERMANENT
        assert transport.attempts == 1

    def test_unreachable_earns_one_descriptor_refetch(self):
        transport = ScriptedTransport(
            [_result(ConnectOutcome.UNREACHABLE), _result(ConnectOutcome.OPEN)],
            descriptor=True,
        )
        outcome = connect_with_retry(transport, ONION, 80, 0, self.POLICY)
        assert outcome.attempts == 2
        assert outcome.recovered
        assert transport.fetches == 1

    def test_unreachable_with_descriptor_gone_is_permanent_churn(self):
        transport = ScriptedTransport(
            [_result(ConnectOutcome.UNREACHABLE)], descriptor=False
        )
        outcome = connect_with_retry(transport, ONION, 80, 0, self.POLICY)
        assert outcome.attempts == 1
        assert outcome.category is FailureCategory.PERMANENT
        assert transport.attempts == 1  # no second connect without a descriptor

    def test_refetch_budget_is_bounded(self):
        policy = RetryPolicy(max_attempts=5, descriptor_refetches=1, seed=1)
        transport = ScriptedTransport(
            [_result(ConnectOutcome.UNREACHABLE)] * 2, descriptor=True
        )
        outcome = connect_with_retry(transport, ONION, 80, 0, policy)
        assert outcome.attempts == 2
        assert outcome.category is FailureCategory.PERMANENT
        assert transport.fetches == 1

    def test_exhaustion_returns_the_last_result(self):
        transport = ScriptedTransport([_result(ConnectOutcome.TIMEOUT)] * 3)
        outcome = connect_with_retry(transport, ONION, 80, 0, self.POLICY)
        assert outcome.attempts == 3
        assert outcome.category is FailureCategory.RETRIES_EXHAUSTED
        assert outcome.result.outcome is ConnectOutcome.TIMEOUT

    def test_require_success_raises_on_exhaustion(self):
        transport = ScriptedTransport([_result(ConnectOutcome.TIMEOUT)] * 3)
        with pytest.raises(RetryExhaustedError) as excinfo:
            connect_with_retry(
                transport, ONION, 80, 0, self.POLICY, require_success=True
            )
        assert excinfo.value.attempts == 3
        assert excinfo.value.last_outcome == "timeout"

    def test_deadline_stops_the_schedule(self):
        transport = ScriptedTransport([_result(ConnectOutcome.TIMEOUT)] * 3)
        outcome = connect_with_retry(
            transport, ONION, 80, 100, self.POLICY, deadline=101
        )
        assert outcome.attempts == 1
        assert outcome.category is FailureCategory.RETRIES_EXHAUSTED
        assert transport.attempts == 1

    def test_initial_result_counts_as_attempt_one(self):
        transport = ScriptedTransport([_result(ConnectOutcome.OPEN)])
        outcome = connect_with_retry(
            transport,
            ONION,
            80,
            0,
            self.POLICY,
            initial=_result(ConnectOutcome.TIMEOUT),
        )
        assert outcome.attempts == 2
        assert outcome.recovered
        assert transport.attempts == 1  # only the retry probed the network

    def test_truncated_open_satisfies_a_syn_scan(self):
        truncated = _result(ConnectOutcome.OPEN, truncated=True)
        transport = ScriptedTransport([truncated])
        syn = connect_with_retry(
            transport, ONION, 80, 0, self.POLICY, require_conversation=False
        )
        assert syn.attempts == 1
        assert syn.category is None

    def test_truncated_open_retries_when_a_conversation_is_needed(self):
        transport = ScriptedTransport(
            [
                _result(ConnectOutcome.OPEN, truncated=True),
                _result(ConnectOutcome.OPEN, banner="full page"),
            ]
        )
        outcome = connect_with_retry(transport, ONION, 80, 0, self.POLICY)
        assert outcome.attempts == 2
        assert outcome.recovered
        assert outcome.result.ok

    def test_latency_advances_the_clock(self):
        transport = ScriptedTransport(
            [_result(ConnectOutcome.OPEN, latency=45)]
        )
        outcome = connect_with_retry(transport, ONION, 80, 100, self.POLICY)
        assert outcome.finished_at == 145

    def test_initial_result_latency_is_not_recharged(self):
        # The caller's ``when`` already includes the batched probe's latency;
        # charging it again here would double-count it in finished_at.
        transport = ScriptedTransport([])
        outcome = connect_with_retry(
            transport,
            ONION,
            80,
            100,
            self.POLICY,
            initial=_result(ConnectOutcome.OPEN, latency=45),
        )
        assert outcome.attempts == 1
        assert outcome.finished_at == 100
        assert transport.attempts == 0

    def test_initial_timeout_clock_advances_by_backoff_and_retry_only(self):
        transport = ScriptedTransport([_result(ConnectOutcome.OPEN, latency=45)])
        outcome = connect_with_retry(
            transport,
            ONION,
            80,
            100,
            self.POLICY,
            initial=_result(ConnectOutcome.TIMEOUT, latency=30),
        )
        delay = self.POLICY.delay_before(2, ONION, 80)
        # The initial result's 30s must not appear anywhere: the retry fires
        # at when + backoff and only the retry's own latency accrues.
        assert transport.connects == [(ONION, 80, 100 + delay)]
        assert outcome.finished_at == 100 + delay + 45

    def test_same_inputs_replay_identically(self):
        script = [
            _result(ConnectOutcome.TIMEOUT),
            _result(ConnectOutcome.TIMEOUT),
            _result(ConnectOutcome.OPEN),
        ]
        first = connect_with_retry(
            ScriptedTransport(list(script)), ONION, 80, 0, self.POLICY
        )
        second = connect_with_retry(
            ScriptedTransport(list(script)), ONION, 80, 0, self.POLICY
        )
        assert first == second


class TestFetchDescriptorWithRetry:
    POLICY = RetryPolicy(descriptor_refetches=1, seed=1)

    def test_present_first_time(self):
        transport = ScriptedTransport([], descriptor=True)
        assert fetch_descriptor_with_retry(transport, ONION, 0, self.POLICY) == (True, 1)

    def test_flap_recovered_by_refetch(self):
        transport = ScriptedTransport([], descriptor=[False, True])
        assert fetch_descriptor_with_retry(transport, ONION, 0, self.POLICY) == (True, 2)

    def test_permanent_churn_exhausts_the_budget(self):
        transport = ScriptedTransport([], descriptor=False)
        found, attempts = fetch_descriptor_with_retry(transport, ONION, 0, self.POLICY)
        assert not found
        assert attempts == 1 + self.POLICY.descriptor_refetches

    def test_refetch_jitter_uses_the_descriptor_stream(self):
        # Descriptor re-fetches must not draw jitter from the port-0 stream:
        # a genuine port-0 probe retry on the same onion would share (and
        # therefore correlate with) the re-fetch schedule.
        from repro.faults.retry import DESCRIPTOR_STREAM

        class FetchTimeTransport(ScriptedTransport):
            def __init__(self, descriptor):
                super().__init__([], descriptor=descriptor)
                self.fetch_times = []

            def has_descriptor(self, onion, now):
                self.fetch_times.append(now)
                return super().has_descriptor(onion, now)

        transport = FetchTimeTransport(descriptor=[False, True])
        found, attempts = fetch_descriptor_with_retry(
            transport, ONION, 100, self.POLICY
        )
        assert (found, attempts) == (True, 2)
        expected = 100 + self.POLICY.delay_before(2, ONION, DESCRIPTOR_STREAM)
        assert transport.fetch_times == [100, expected]
        # And the label really is a distinct stream from port 0.  The
        # default base_delay is small enough that whole-second rounding can
        # mask the jitter, so compare with delays wide enough to show it.
        wide = RetryPolicy(seed=1, base_delay=10_000, max_delay=100_000)
        descriptor_delays = [
            wide.delay_before(n, ONION, DESCRIPTOR_STREAM) for n in (2, 3, 4)
        ]
        port_zero_delays = [wide.delay_before(n, ONION, 0) for n in (2, 3, 4)]
        assert descriptor_delays != port_zero_delays


class TestFailureTaxonomy:
    def test_record_and_totals(self):
        taxonomy = FailureTaxonomy()
        taxonomy.record(FailureCategory.TRANSIENT_RECOVERED, attempts=3)
        taxonomy.record(FailureCategory.RETRIES_EXHAUSTED, attempts=3)
        taxonomy.record(FailureCategory.PERMANENT)
        taxonomy.record(None)  # clean first-attempt success: not a failure
        assert taxonomy.total == 3
        assert taxonomy.retry_attempts == 4

    def test_merge(self):
        a = FailureTaxonomy(transient_recovered=1, permanent=2, retry_attempts=1)
        b = FailureTaxonomy(retries_exhausted=3, retry_attempts=2)
        a.merge(b)
        assert a.transient_recovered == 1
        assert a.retries_exhausted == 3
        assert a.permanent == 2
        assert a.retry_attempts == 3

    def test_rows_are_stable(self):
        taxonomy = FailureTaxonomy(
            transient_recovered=5, retries_exhausted=2, permanent=1
        )
        assert list(taxonomy.rows()) == [
            ("transient recovered", 5),
            ("retries exhausted", 2),
            ("permanent failures", 1),
        ]
