"""Admission-control primitives: tenants, quotas, WFQ, breakers, upgrades."""

import pytest

from repro.audit import ConfigError
from repro.cluster import (
    AdmissionController,
    AdmissionMode,
    AdmissionPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    Gateway,
    Node,
    NodeClass,
    TenantSpec,
    TokenBucket,
    UpgradePlan,
    WeightedFairQueue,
    parse_tenants_spec,
)
from repro.cluster.admission import (
    bump_counter,
    render_counters,
    reset_counters,
    snapshot_counters,
)
from repro.core.journal import decode, encode
from repro.serving.request import RetryPolicy


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec(name="acme")
        assert spec.tier == 1
        assert spec.quota_rate is None
        assert spec.ttft_slo is None

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "t", "tier": -1},
        {"name": "t", "tier": 3},
        {"name": "t", "share": 0.0},
        {"name": "t", "weight": -1.0},
        {"name": "t", "quota_rate": 0.0},
        {"name": "t", "quota_burst": 0.5},
        {"name": "t", "ttft_slo": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TenantSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = TenantSpec(
            name="gold", tier=0, share=0.25, weight=4.0,
            quota_rate=8.0, quota_burst=8.0, ttft_slo=2.0,
        )
        assert decode(TenantSpec, encode(spec)) == spec


class TestParseTenantsSpec:
    def test_parses_full_spec(self):
        tenants = parse_tenants_spec(
            "gold:tier=0,share=0.25,weight=4,slo=2;"
            "bronze:tier=2,share=0.75,rate=8,burst=8"
        )
        gold, bronze = tenants
        assert gold == TenantSpec(
            name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0
        )
        assert bronze.quota_rate == 8.0
        assert bronze.quota_burst == 8.0
        assert bronze.ttft_slo is None

    def test_bare_name_gets_defaults(self):
        (tenant,) = parse_tenants_spec("acme:")
        assert tenant == TenantSpec(name="acme")

    @pytest.mark.parametrize("spec", [
        "",
        "noseparator",
        "t:tier",
        "t:tier=zero",
        "t:color=red",
    ])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_tenants_spec(spec)


class TestTokenBucket:
    def test_burst_then_denial(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.admit(0.0)
        assert bucket.admit(0.0)
        assert not bucket.admit(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.admit(0.0)
        assert not bucket.admit(0.1)
        assert bucket.admit(0.6)  # 0.5s at 2/s refills the single token

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.admit(10.0)
        assert bucket.admit(10.0)
        assert not bucket.admit(10.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0.5)


class TestWeightedFairQueue:
    def test_service_proportional_to_weight(self):
        wfq = WeightedFairQueue()
        wfq.register("heavy", 2.0)
        wfq.register("light", 1.0)
        for i in range(6):
            wfq.push("heavy", f"h{i}")
            wfq.push("light", f"l{i}")
        served = [wfq.pop()[0] for _ in range(6)]
        assert served.count("heavy") == 4
        assert served.count("light") == 2

    def test_equal_weights_alternate(self):
        wfq = WeightedFairQueue()
        wfq.register("a", 1.0)
        wfq.register("b", 1.0)
        for i in range(4):
            wfq.push("a", i)
            wfq.push("b", i)
        assert [wfq.pop()[0] for _ in range(4)] == ["a", "b", "a", "b"]

    def test_idle_tenant_banks_no_credit(self):
        wfq = WeightedFairQueue()
        wfq.register("busy", 1.0)
        wfq.register("idle", 1.0)
        for i in range(10):
            wfq.push("busy", i)
        for _ in range(8):
            wfq.pop()
        # The long-idle tenant re-enters at the current virtual time:
        # it gets its fair share from now on, not a burst of make-up
        # service for the time it spent idle.
        wfq.push("idle", "late0")
        wfq.push("idle", "late1")
        served = [wfq.pop()[0] for _ in range(4)]
        assert served.count("idle") == 2
        assert served.count("busy") == 2

    def test_remove_and_len(self):
        wfq = WeightedFairQueue()
        wfq.register("a", 1.0)
        wfq.push("a", "x")
        wfq.push("a", "y")
        assert len(wfq) == 2
        wfq.drop_head("a", 1)
        assert len(wfq) == 1
        assert wfq.pop() == ("a", "y")
        assert wfq.pop() is None

    def test_register_validation(self):
        wfq = WeightedFairQueue()
        wfq.register("a", 1.0)
        with pytest.raises(ConfigError):
            wfq.register("a", 1.0)
        with pytest.raises(ConfigError):
            wfq.register("b", 0.0)


class TestCircuitBreaker:
    def _breaker(self, threshold=2, cooldown=1.0):
        return CircuitBreaker(BreakerPolicy(
            failure_threshold=threshold, cooldown=cooldown
        ))

    def test_opens_after_consecutive_failures(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.5)
        assert breaker.state is BreakerState.OPEN
        assert breaker.blocked(1.0)

    def test_success_resets_the_failure_streak(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED

    def test_cooldown_then_single_probe(self):
        breaker = self._breaker(cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.blocked(0.5)
        assert not breaker.blocked(1.5)  # eligible for a probe
        breaker.on_dispatch(1.5)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.probes == 1
        assert breaker.blocked(1.5)  # exactly one probe in flight

    def test_probe_success_closes(self):
        breaker = self._breaker(cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.on_dispatch(1.5)
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert not breaker.blocked(1.5)
        assert breaker.closes == 1

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = self._breaker(cooldown=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.on_dispatch(1.5)
        breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.blocked(2.5)
        assert not breaker.blocked(3.5)
        assert breaker.opens == 2

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerPolicy(cooldown=0.0)


def _controller(policy=None, tenants=None):
    tenants = tenants or (
        TenantSpec(name="gold", tier=0, weight=4.0),
        TenantSpec(name="bronze", tier=2, weight=1.0),
    )
    return AdmissionController(tenants, policy or AdmissionPolicy(
        target_queue_delay=0.5, shed_queue_delay=2.0, max_queue_delay=10.0
    ))


class TestAdmissionController:
    def test_quota_denial_reason(self):
        controller = _controller(tenants=(
            TenantSpec(name="metered", tier=2, quota_rate=1.0, quota_burst=1.0),
        ))
        assert controller.offer(0, "metered", 0.0) is None
        reason = controller.offer(1, "metered", 0.0)
        assert reason == "quota: tenant metered over 1 req/s (burst 1)"
        assert controller.quota_denied == 1

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate WFQ tenant 'gold'"):
            _controller(tenants=(
                TenantSpec(name="gold", tier=0), TenantSpec(name="gold", tier=1),
            ))

    def test_unknown_tenant_rejected(self):
        controller = _controller()
        with pytest.raises(ConfigError):
            controller.offer(0, "stranger", 0.0)

    def test_modes_follow_oldest_queue_delay(self):
        controller = _controller()
        controller.offer(0, "bronze", 0.0)
        assert controller.evaluate(0.1) == []
        assert controller.mode is AdmissionMode.NORMAL
        controller.evaluate(1.0)  # oldest delay 1.0 > target 0.5
        assert controller.mode is AdmissionMode.BROWNOUT
        assert controller.brownout_active
        assert controller.brownout_entries == 1
        controller.pop_dispatchable()
        controller.evaluate(1.5)  # queue empty: delay 0
        assert controller.mode is AdmissionMode.NORMAL
        assert not controller.brownout_active

    def test_shed_drops_lowest_tier_first_never_tier0(self):
        controller = _controller()
        controller.offer(0, "gold", 0.0)
        controller.offer(1, "bronze", 0.0)
        sheds = controller.evaluate(3.0)  # delay 3.0 > shed 2.0
        assert controller.mode is AdmissionMode.SHED
        assert [entry.tenant for entry, _ in sheds] == ["bronze"]
        (entry, reason), = sheds
        assert reason == "overload: queue delay 3.000s > 2s, tier 2 shed first"
        # Tier 0 survives in the queue even though it is just as old.
        assert [e.tenant for q in controller.wfq.queues.values() for e in q] == ["gold"]
        assert controller.queue_sheds_by_tier == [0, 0, 1]

    def test_hard_bound_sheds_any_tier(self):
        controller = _controller()
        controller.offer(0, "gold", 0.0)
        sheds = controller.evaluate(11.0)  # > max_queue_delay 10.0
        (entry, reason), = sheds
        assert entry.tenant == "gold"
        assert reason.startswith("admission-timeout: queued 11.000s")
        assert controller.queued == 0

    def test_mode_transitions_are_logged(self):
        controller = _controller()
        controller.offer(0, "bronze", 0.0)
        controller.evaluate(1.0)
        assert controller.mode_log == [
            "t=1 normal -> brownout (queue delay 1.000s)"
        ]

    def test_brownout_caps_output_tokens(self):
        controller = _controller(policy=AdmissionPolicy(
            brownout_max_new_tokens=16, max_queue_delay=10.0
        ))
        assert controller.cap_output_tokens(128) == 128
        controller.offer(0, "bronze", 0.0)
        controller.evaluate(1.0)
        assert controller.cap_output_tokens(128) == 16
        assert controller.cap_output_tokens(8) == 8

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(target_queue_delay=0.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(target_queue_delay=1.0, shed_queue_delay=1.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(shed_queue_delay=2.0, max_queue_delay=2.0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(brownout_max_new_tokens=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_inflight_per_node=0)


class TestUpgradePlan:
    def test_from_spec(self):
        plan = UpgradePlan.from_spec("start=3,restart=1.5,poll=0.5")
        assert plan == UpgradePlan(start=3.0, restart_delay=1.5, poll_interval=0.5)

    def test_from_spec_defaults(self):
        assert UpgradePlan.from_spec("start=2") == UpgradePlan(start=2.0)

    @pytest.mark.parametrize("spec", ["start", "start=x", "when=2"])
    def test_from_spec_rejects_malformed(self, spec):
        with pytest.raises(ConfigError):
            UpgradePlan.from_spec(spec)

    def test_validation(self):
        with pytest.raises(ConfigError):
            UpgradePlan(start=-1.0)
        with pytest.raises(ConfigError):
            UpgradePlan(restart_delay=-0.5)
        with pytest.raises(ConfigError):
            UpgradePlan(poll_interval=0.0)

    def test_dict_round_trip(self):
        plan = UpgradePlan(start=2.0, restart_delay=0.75, poll_interval=0.5)
        assert decode(UpgradePlan, encode(plan)) == plan


class TestRetryPolicyConfigErrors:
    """The retry knobs reject nonsense with typed ConfigErrors."""

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"max_backoff": 0.0},
        {"max_backoff": -2.0},
        {"jitter": 1.5},
        {"backoff_multiplier": 0.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_config_error_is_still_a_value_error(self):
        # Historical callers catch ValueError; the typed error must not
        # break them.
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestGatewayPickRegression:
    def _gateway(self, n=2):
        gateway = Gateway("round-robin")
        for i in range(n):
            gateway.register(Node(
                f"n{i}", NodeClass(name="gaudi2", device="gaudi2", tp=2)
            ))
        return gateway

    def test_none_pick_leaves_round_robin_cursor_alone(self):
        gateway = self._gateway()
        # Fully excluded under require_untried: no candidate, and the
        # failed pick must not perturb routing for later requests.
        assert gateway.pick(
            exclude={"n0", "n1"}, require_untried=True
        ) is None
        assert gateway.pick().name == "n0"
        assert gateway.pick().name == "n1"

    def test_fully_avoided_pool_returns_none_without_advancing(self):
        gateway = self._gateway()
        assert gateway.pick(avoid={"n0", "n1"}) is None
        assert gateway.pick().name == "n0"

    def test_exclude_fallback_still_reuses_tried_nodes(self):
        # Without require_untried, a retry may return to a tried node
        # rather than shed a servable request (historical behavior).
        gateway = self._gateway()
        assert gateway.pick(exclude={"n0", "n1"}).name == "n0"


class TestAdmissionCounters:
    def test_render_counters_golden(self):
        before = snapshot_counters()
        reset_counters()
        try:
            controller = _controller(tenants=(
                TenantSpec(name="metered", tier=2, quota_rate=1.0, quota_burst=1.0),
            ))
            controller.offer(0, "metered", 0.0)   # enqueued
            controller.offer(1, "metered", 0.0)   # quota denied
            controller.pop_dispatchable()          # dequeued
            breaker = CircuitBreaker(BreakerPolicy(
                failure_threshold=1, cooldown=1.0
            ))
            breaker.record_failure(0.0)            # opened
            breaker.on_dispatch(2.0)               # probe
            breaker.record_success()               # closed
            bump_counter("breaker_short_circuits")
            bump_counter("upgrade_drains")
            assert render_counters() == "\n".join([
                "  quota      : 1 denied by token buckets",
                "  fair queue : 1 enqueued | 1 dequeued",
                "  overload   : 0 brownout entries | 0 shed",
                "  breakers   : 1 opened | 1 probes | 1 closed | "
                "1 short-circuits",
                "  upgrades   : 1 node drains",
            ])
        finally:
            reset_counters()
            for key, value in before.items():
                bump_counter(key, value)

    def test_repro_top_surfaces_admission_section(self, capsys):
        from repro.cli import main

        code = main(["top", "--requests", "8", "--samples", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Admission / tenant isolation:" in out
        assert "denied by token buckets" in out
