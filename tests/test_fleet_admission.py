"""Fleet-level overload protection: tenants, admission, breakers, upgrades."""

import pytest

from repro.audit import ConfigError, audit_scope
from repro.cluster import (
    AdmissionPolicy,
    BreakerPolicy,
    FleetConfig,
    NodeFaultPlan,
    TenantSpec,
    UpgradePlan,
    resume_fleet,
    run_fleet,
)
from repro.core.journal import decode, encode

#: The premium tier's TTFT SLO (seconds) used across these tests.
TIER0_SLO = 2.0

TENANTS = (
    TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=TIER0_SLO),
    TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
    TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0),
)


def _overload_config(**kwargs):
    """A 2-node batch-4 fleet at 2x its saturation rate."""
    kwargs.setdefault("nodes", (("gaudi2", 2),))
    kwargs.setdefault("max_decode_batch", 4)
    kwargs.setdefault("num_requests", 96)
    kwargs.setdefault("rate", 40.0)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("tenants", TENANTS)
    return FleetConfig(**kwargs)


def _admission_policy(**kwargs):
    kwargs.setdefault("target_queue_delay", 0.4)
    kwargs.setdefault("shed_queue_delay", 0.8)
    kwargs.setdefault("evaluate_interval", 0.25)
    kwargs.setdefault("brownout_max_new_tokens", 48)
    kwargs.setdefault("max_queue_delay", 20.0)
    return AdmissionPolicy(**kwargs)


class TestConfigPlumbing:
    def test_round_trip_with_admission_fields(self):
        config = _overload_config(
            admission=_admission_policy(max_inflight_per_node=6),
            breaker=BreakerPolicy(failure_threshold=2, cooldown=1.5),
            upgrade=UpgradePlan(start=1.0, restart_delay=0.75),
        )
        assert decode(FleetConfig, encode(config)) == config

    def test_legacy_dict_without_admission_keys_loads(self):
        data = encode(FleetConfig())
        for key in ("tenants", "admission", "breaker", "upgrade"):
            data.pop(key, None)
        config = decode(FleetConfig, data)
        assert config.tenants == ()
        assert config.admission is None
        assert config.breaker is None
        assert config.upgrade is None

    def test_admission_requires_tenants(self):
        with pytest.raises(ConfigError):
            FleetConfig(admission=_admission_policy())

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ConfigError):
            FleetConfig(tenants=(
                TenantSpec(name="a", tier=0), TenantSpec(name="a", tier=1)
            ))


class TestTenantAccounting:
    def test_tenant_reports_partition_the_workload(self):
        with audit_scope("strict"):
            report = run_fleet(_overload_config(rate=10.0, num_requests=48))
        assert {t.name for t in report.tenant_reports} == \
            {"gold", "silver", "bronze"}
        assert sum(t.admitted for t in report.tenant_reports) == report.admitted
        assert sum(t.finished for t in report.tenant_reports) == report.finished
        # Untenanted runs carry no tenant section.
        with audit_scope("strict"):
            plain = run_fleet(FleetConfig(num_requests=16, rate=8.0))
        assert plain.tenant_reports == ()

    def test_tenant_assignment_is_deterministic(self):
        config = _overload_config(rate=10.0, num_requests=48)
        with audit_scope("strict"):
            first = run_fleet(config)
            second = run_fleet(config)
        assert first.to_payload() == second.to_payload()
        assert first.render() == second.render()


class TestOverloadProtection:
    def test_tier0_slo_holds_at_2x_while_lower_tiers_shed_first(self):
        """The headline acceptance criterion: at 2x the saturation
        rate, admission control browns out and sheds best-effort tiers
        while tier-0 p99 TTFT stays inside its SLO."""
        with audit_scope("strict"):
            baseline = run_fleet(_overload_config())
            protected = run_fleet(_overload_config(
                admission=_admission_policy()
            ))
        tiers = {t.tier: t for t in protected.tenant_reports}
        tier0, tier2 = tiers[0], tiers[2]
        # Overload response actually engaged...
        assert protected.brownout_entries > 0
        assert protected.overload_sheds > 0
        assert protected.admission_mode_log
        # ...shedding strictly below tier 0 (audited fleet-wide too).
        assert tier0.shed == 0
        assert tier0.overload_shed == 0
        assert tier2.overload_shed > 0
        # Tier 0 rides out the overload inside its SLO.
        assert tier0.p99_ttft <= TIER0_SLO
        assert tier0.slo_violations == 0
        # The unprotected fleet sheds nothing and lets queueing delay
        # soak the best-effort tier instead.
        baseline_tier2 = {t.tier: t for t in baseline.tenant_reports}[2]
        assert baseline.overload_sheds == 0
        assert tier2.p99_ttft < baseline_tier2.p99_ttft / 2

    def test_quota_sheds_only_hit_the_metered_tenant(self):
        tenants = (
            TenantSpec(name="gold", tier=0, share=0.3, weight=4.0),
            TenantSpec(
                name="bronze", tier=2, share=0.7, weight=1.0,
                quota_rate=2.0, quota_burst=2.0,
            ),
        )
        with audit_scope("strict"):
            report = run_fleet(_overload_config(
                tenants=tenants, rate=20.0, num_requests=48,
                admission=_admission_policy(),
            ))
        by_name = {t.name: t for t in report.tenant_reports}
        assert report.quota_sheds > 0
        assert by_name["bronze"].quota_shed == report.quota_sheds
        assert by_name["gold"].quota_shed == 0

    def test_sheds_carry_gateway_overload_reasons(self):
        with audit_scope("strict"):
            report = run_fleet(_overload_config(admission=_admission_policy()))
        reasons = dict(report.shed_reasons_gateway)
        assert reasons.get("gateway-overload", 0) > 0
        admission_sheds = (
            reasons.get("gateway-overload", 0)
            + reasons.get("gateway-admission-timeout", 0)
        )
        assert admission_sheds == report.overload_sheds


class TestCircuitBreakers:
    def _sick_node_config(self, breaker):
        return FleetConfig(
            nodes=(("gaudi2", 2),),
            max_decode_batch=8,
            num_requests=48,
            rate=12.0,
            seed=0,
            timeout=1.0,
            plan=NodeFaultPlan.from_spec(
                "brownout:gaudi2-1@t=0.5,factor=0.02,until=20"
            ),
            breaker=breaker,
        )

    def test_breakers_damp_the_retry_storm(self):
        """With one node browned out to 2% speed behind a 1s timeout,
        breakers must not amplify traffic: fewer dispatches and fewer
        timeouts than the naive keep-hammering baseline, at no cost in
        completed requests."""
        with audit_scope("strict"):
            without = run_fleet(self._sick_node_config(None))
            with_breaker = run_fleet(self._sick_node_config(
                BreakerPolicy(failure_threshold=2, cooldown=3.0)
            ))
        assert with_breaker.breaker_opens > 0
        assert with_breaker.attempts < without.attempts
        assert with_breaker.timeouts < without.timeouts
        assert with_breaker.finished >= without.finished
        assert without.breaker_opens == 0

    def test_short_circuits_counted_when_only_breaker_blocks(self):
        with audit_scope("strict"):
            report = run_fleet(self._sick_node_config(
                BreakerPolicy(failure_threshold=2, cooldown=3.0)
            ))
        # The sick node stays routable (browned out, not dead), so
        # every avoided dispatch is a genuine breaker short-circuit.
        assert report.breaker_short_circuits > 0


class TestRollingUpgrades:
    def _upgrade_config(self, **kwargs):
        kwargs.setdefault("nodes", (("gaudi2", 2),))
        kwargs.setdefault("max_decode_batch", 8)
        kwargs.setdefault("num_requests", 48)
        kwargs.setdefault("rate", 8.0)
        kwargs.setdefault("seed", 0)
        kwargs.setdefault("upgrade", UpgradePlan(start=1.0))
        return FleetConfig(**kwargs)

    def test_every_node_drains_with_zero_loss(self):
        with audit_scope("strict"):
            report = run_fleet(self._upgrade_config())
        assert report.upgrades_started == 2
        assert report.upgrades_completed == 2
        assert report.unfinished == 0
        assert report.finished + report.shed == report.admitted
        for name in ("gaudi2-0", "gaudi2-1"):
            assert f"drain {name}" in " ".join(report.upgrade_log)
            assert f"rejoin {name}" in " ".join(report.upgrade_log)

    def test_upgrade_composes_with_crash_chaos(self):
        # A node that dies mid-schedule is skipped (nothing to drain),
        # not wedged on; the rest of the fleet still upgrades.
        with audit_scope("strict"):
            report = run_fleet(self._upgrade_config(
                nodes=(("gaudi2", 3),),
                timeout=10.0,
                upgrade=UpgradePlan(start=1.0),
                plan=NodeFaultPlan.from_spec("crash:gaudi2-1@t=0.5,recover=30"),
            ))
        assert report.upgrades_started == report.upgrades_completed
        assert report.unfinished == 0

    def test_upgrade_with_tenants_and_admission(self):
        with audit_scope("strict"):
            report = run_fleet(self._upgrade_config(
                tenants=TENANTS,
                admission=_admission_policy(),
                breaker=BreakerPolicy(),
            ))
        assert report.upgrades_completed == 2
        assert report.unfinished == 0


class TestJournalResume:
    def test_resume_is_byte_identical_with_full_admission_stack(self, tmp_path):
        config = _overload_config(
            num_requests=48,
            admission=_admission_policy(),
            breaker=BreakerPolicy(),
            upgrade=UpgradePlan(start=1.0),
        )
        run_dir = tmp_path / "fleet-admission"
        with audit_scope("strict"):
            original = run_fleet(config, journal=run_dir)
            resumed = resume_fleet(run_dir)
        assert resumed.to_payload() == original.to_payload()
        assert resumed.to_json() == original.to_json()
        assert resumed.render() == original.render()

    def test_render_surfaces_admission_sections(self):
        with audit_scope("strict"):
            report = run_fleet(_overload_config(
                num_requests=48,
                admission=_admission_policy(),
                breaker=BreakerPolicy(),
                upgrade=UpgradePlan(start=1.0),
            ))
        text = report.render()
        assert "admission" in text
        assert "tenant" in text
        assert "gold (tier 0)" in text
        assert "upgrade" in text
