"""The journal codec: ``encode``/``decode`` round-trip every journaled
class exactly, keep the journal bytes, and reject malformed payloads
with a :class:`~repro.audit.JournalError` naming the field."""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import JournalError
from repro.cluster import (
    AdmissionPolicy,
    AutoscalePolicy,
    BreakerPolicy,
    FleetConfig,
    FleetResilienceReport,
    NodeFaultKind,
    NodeFaultPlan,
    TenantSpec,
    UpgradePlan,
    run_fleet,
)
from repro.cluster.faults import NodeFaultEvent
from repro.core.journal import canonical_json, decode, encode
from repro.faults.events import MIN_LINK_FACTOR
from repro.serving.engine import ServingReport
from repro.serving.loadgen import LoadTestReport, ResilientLoadReport
from repro.serving.request import RetryPolicy

_floats = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-3, max_value=1e3)
_non_negative = st.floats(min_value=0.0, max_value=1e3)
_counts = st.integers(min_value=0, max_value=10**6)
_names = st.text(min_size=1, max_size=8)

_tenant_specs = st.builds(
    TenantSpec,
    name=_names,
    tier=st.integers(min_value=0, max_value=2),
    share=_positive,
    weight=_positive,
    quota_rate=st.none() | _positive,
    quota_burst=st.floats(min_value=1.0, max_value=64.0),
    ttft_slo=st.none() | _positive,
)
_upgrade_plans = st.builds(
    UpgradePlan, start=_non_negative, restart_delay=_non_negative,
    poll_interval=_positive,
)
#: The factors each event kind accepts; every other kind takes None.
_event_factors = {
    NodeFaultKind.FABRIC_DEGRADE: st.just(0.0) | st.floats(
        min_value=MIN_LINK_FACTOR, max_value=1.0, exclude_max=True
    ),
    NodeFaultKind.BROWNOUT: st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
}


@st.composite
def _fault_events(draw):
    kind = draw(st.sampled_from(NodeFaultKind))
    return NodeFaultEvent(
        time=draw(_non_negative), kind=kind, node=draw(_names),
        factor=draw(_event_factors.get(kind, st.none())),
    )


_fault_plans = st.builds(NodeFaultPlan, events=st.lists(_fault_events(), max_size=6))
_autoscale = st.builds(
    AutoscalePolicy,
    target_p99_ttft=_positive,
    target_p99_tpot=st.none() | _positive,
    evaluate_interval=_positive,
    cooldown=_non_negative,
    scale_down_factor=st.floats(min_value=0.01, max_value=0.99),
    min_nodes=st.integers(min_value=1, max_value=3),
    max_nodes=st.integers(min_value=3, max_value=8),
    provision_delay=_non_negative,
)
_retry = st.builds(
    RetryPolicy,
    max_retries=st.integers(min_value=0, max_value=5),
    backoff_base=_non_negative,
    backoff_multiplier=st.floats(min_value=1.0, max_value=4.0),
    jitter=st.floats(min_value=0.0, max_value=1.0),
    max_backoff=st.none() | _positive,
    seed=_counts,
)


@st.composite
def _admission(draw):
    target = draw(st.floats(min_value=0.01, max_value=10.0))
    shed = target + draw(_positive)
    return AdmissionPolicy(
        target_queue_delay=target,
        shed_queue_delay=shed,
        evaluate_interval=draw(_positive),
        brownout_max_new_tokens=draw(st.integers(min_value=1, max_value=512)),
        max_inflight_per_node=draw(st.none() | st.integers(1, 64)),
        max_queue_delay=shed + draw(_positive),
    )


@st.composite
def _fleet_configs(draw):
    tenants = tuple(draw(st.lists(
        _tenant_specs, max_size=3, unique_by=lambda spec: spec.name,
    )))
    return FleetConfig(
        nodes=tuple(draw(st.lists(
            st.tuples(st.sampled_from(["gaudi2", "a100", "h100"]),
                      st.integers(min_value=1, max_value=4)),
            min_size=1, max_size=3,
        ))),
        num_kv_blocks=draw(st.none() | st.integers(1, 10**5)),
        num_requests=draw(st.integers(min_value=1, max_value=512)),
        rate=draw(_positive),
        diurnal=draw(st.booleans()),
        seed=draw(_counts),
        timeout=draw(st.none() | _positive),
        retry=draw(_retry),
        hedge_after=draw(st.none() | _positive),
        deadline=draw(st.none() | _positive),
        autoscale=draw(st.none() | _autoscale),
        tenants=tenants,
        admission=draw(st.none() | _admission()) if tenants else None,
        breaker=draw(st.none() | st.builds(
            BreakerPolicy, failure_threshold=st.integers(1, 8),
            cooldown=_positive,
        )),
        upgrade=draw(st.none() | _upgrade_plans),
        plan=draw(_fault_plans),
    )


_load_reports = st.builds(
    LoadTestReport, offered_rate=_floats, achieved_rate=_floats,
    mean_ttft=_floats, p99_ttft=_floats, mean_tpot=_floats,
    saturated=st.booleans(),
)
_serving_reports = st.builds(
    ServingReport,
    device=_names, attention=_names, num_requests=_counts,
    max_decode_batch=_counts, total_time=_floats,
    total_output_tokens=_counts, mean_ttft=_floats, mean_tpot=_floats,
    average_power=_floats, engine_steps=_counts, preemptions=_counts,
    finished_requests=_counts, shed_requests=_counts,
    watchdog_reason=st.text(max_size=8),
)
_resilient_reports = st.builds(
    ResilientLoadReport,
    offered_rate=_floats, finished=_counts, shed=_counts, failed=_counts,
    retried=_counts, mean_ttft=_floats, p99_ttft=_floats,
    slo_violation_rate=_floats, goodput_fraction=_floats,
    serving=_serving_reports,
)


@functools.lru_cache(maxsize=None)
def _small_fleet_report() -> FleetResilienceReport:
    """A tenanted, chaotic two-pool run: every report section is set."""
    return run_fleet(FleetConfig(
        nodes=(("gaudi2", 1), ("a100", 1)), num_requests=24, rate=40.0,
        max_decode_batch=4, timeout=2.0,
        tenants=(TenantSpec("gold", tier=0, ttft_slo=2.0),
                 TenantSpec("bronze", tier=2, quota_rate=4.0)),
        admission=AdmissionPolicy(), breaker=BreakerPolicy(),
        upgrade=UpgradePlan(start=1.0),
        plan=NodeFaultPlan().crash("a100-0", 0.5, recover_at=2.0),
    ))


_journaled_values = st.one_of(
    _fleet_configs(), _fault_plans, _tenant_specs, _upgrade_plans,
    st.deferred(lambda: st.just(_small_fleet_report())),
    _load_reports, _resilient_reports,
)


class TestRoundTrip:
    @given(value=_journaled_values)
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode_through_json(self, value):
        payload = json.loads(json.dumps(encode(value)))
        assert decode(type(value), payload) == value

    def test_small_fleet_report_sets_every_section(self):
        report = _small_fleet_report()
        assert report.node_reports and report.tenant_reports
        assert report.node_crashes and report.upgrades_completed
        assert report.shed_reasons_gateway

    def test_missing_keys_take_defaults(self):
        assert decode(AutoscalePolicy, {}) == AutoscalePolicy()
        assert decode(FleetConfig, {"tp": 4}) == FleetConfig(tp=4)

    def test_unknown_keys_are_ignored(self):
        # Older sweep journals stored the serving report's display dict,
        # derived rates included.
        report = ServingReport(
            device="Gaudi-2", attention="paged", num_requests=4,
            max_decode_batch=4, total_time=2.0, total_output_tokens=64,
            mean_ttft=0.25, mean_tpot=0.125, average_power=150.0,
            engine_steps=20, preemptions=0, finished_requests=4,
        )
        assert decode(ServingReport, report.to_dict()) == report

    def test_encode_plain_types(self):
        assert encode({1: (np.int64(2), np.float64(0.5), np.bool_(True))}) == \
            {"1": [2, 0.5, True]}
        assert encode(NodeFaultKind.BLIP) == "blip"
        with pytest.raises(TypeError):
            encode(object())


#: The canonical header of a fully populated config, in the journal
#: format existing run directories were written with: they resume only
#: while this stays byte-equal.
PINNED_HEADER = (
    '{"config":{"admission":{"brownout_max_new_tokens":64,"evaluate_interval":0.25,'
    '"max_inflight_per_node":8,"max_queue_delay":30.0,"shed_queue_delay":2.0,'
    '"target_queue_delay":0.5},"admission_watermark":1.0,"autoscale":{"cooldown":4.0,'
    '"evaluate_interval":2.0,"max_nodes":4,"min_nodes":1,"provision_delay":1.0,'
    '"scale_down_factor":0.3,"target_p99_tpot":0.5,"target_p99_ttft":4.0},'
    '"breaker":{"cooldown":2.0,"failure_threshold":3},"checkpoint_interval":32,'
    '"deadline":8.0,"diurnal":false,"diurnal_period":60.0,"hedge_after":1.5,'
    '"max_decode_batch":32,"model":"8b","nodes":[["gaudi2",2],["a100",1]],'
    '"num_kv_blocks":4000,"num_requests":24,"plan":{"events":['
    '{"factor":null,"kind":"node_crash","node":"gaudi2-0","time":1.0},'
    '{"factor":null,"kind":"node_recover","node":"gaudi2-0","time":3.0},'
    '{"factor":0.5,"kind":"brownout","node":"a100-0","time":0.5},'
    '{"factor":null,"kind":"brownout_clear","node":"a100-0","time":2.5},'
    '{"factor":0.25,"kind":"fabric_degrade","node":"gaudi2-1","time":0.8},'
    '{"factor":null,"kind":"fabric_restore","node":"gaudi2-1","time":2.0},'
    '{"factor":null,"kind":"blip","node":"a100-0","time":2.0},'
    '{"factor":null,"kind":"blip_clear","node":"a100-0","time":2.5}]},'
    '"policy":"round-robin","probe_interval":1.0,"rate":6.0,"recovery_warmup":0.5,'
    '"retry":{"backoff_base":0.25,"backoff_multiplier":2.0,"jitter":0.25,'
    '"max_backoff":4.0,"max_retries":2,"seed":3},"seed":0,"tenants":['
    '{"name":"gold","quota_burst":4.0,"quota_rate":null,"share":0.5,"tier":0,'
    '"ttft_slo":2.0,"weight":3.0},{"name":"bronze","quota_burst":6.0,'
    '"quota_rate":4.0,"share":0.5,"tier":2,"ttft_slo":null,"weight":1.0}],'
    '"timeout":5.0,"tp":8,"upgrade":{"poll_interval":0.25,"restart_delay":0.5,'
    '"start":1.0}},"tool":"fleet"}'
)


def test_fleet_header_bytes_are_pinned():
    plan = (
        NodeFaultPlan()
        .crash("gaudi2-0", 1.0, recover_at=3.0)
        .brownout("a100-0", 0.5, 0.5, until=2.5)
        .degrade_fabric("gaudi2-1", 0.25, 0.8, until=2.0)
        .blip("a100-0", 2.0, 0.5)
    )
    config = FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 1)), num_kv_blocks=4000,
        num_requests=24, rate=6.0, timeout=5.0, hedge_after=1.5, deadline=8.0,
        retry=RetryPolicy(max_retries=2, jitter=0.25, max_backoff=4.0, seed=3),
        autoscale=AutoscalePolicy(
            target_p99_ttft=4.0, target_p99_tpot=0.5, max_nodes=4
        ),
        tenants=(
            TenantSpec("gold", tier=0, share=0.5, weight=3.0, ttft_slo=2.0),
            TenantSpec("bronze", tier=2, share=0.5, quota_rate=4.0,
                       quota_burst=6.0),
        ),
        admission=AdmissionPolicy(max_inflight_per_node=8),
        breaker=BreakerPolicy(),
        upgrade=UpgradePlan(start=1.0),
        plan=plan,
    )
    header = {"tool": "fleet", "config": encode(config)}
    assert canonical_json(header) == PINNED_HEADER
    assert decode(FleetConfig, json.loads(PINNED_HEADER)["config"]) == config


class TestMalformedPayloads:
    @pytest.mark.parametrize("cls, payload, message", [
        (FleetConfig, {"tp": "8"}, "FleetConfig.tp: expected int, got '8'"),
        (FleetConfig, {"rate": True}, "FleetConfig.rate: expected float, got True"),
        (FleetConfig, {"nodes": [["gaudi2", 2, 3]]}, "FleetConfig.nodes: expected 2 items"),
        (FleetConfig, {"tenants": {"name": "a"}}, "FleetConfig.tenants: expected a list"),
        (FleetConfig, {"retry": [3]}, "FleetConfig.retry: expected an object"),
        (FleetConfig, {"tenants": [{"tier": 0}]}, "TenantSpec.name: missing required field"),
        (NodeFaultPlan, {"events": [{"time": 1.0, "kind": "meteor", "node": "n"}]},
         "NodeFaultEvent.kind: 'meteor' is not a NodeFaultKind"),
        (LoadTestReport, {"offered_rate": 1.0, "achieved_rate": 1.0, "mean_ttft": 0.1,
                          "p99_ttft": 0.2, "mean_tpot": 0.01, "saturated": 1},
         "LoadTestReport.saturated: expected bool, got 1"),
    ], ids=["int-as-str", "bool-as-float", "pair-arity", "list-as-object",
            "object-as-list", "missing-required", "bad-enum", "int-as-bool"])
    def test_names_the_field(self, cls, payload, message):
        with pytest.raises(JournalError, match="^" + re.escape(message)):
            decode(cls, payload)
