"""Fleet nodes on the vectorized engine core vs the scalar reference.

Fleet nodes bind a ResiliencePolicy (tiers, TTFT deadlines, graceful
exhaustion, admission watermark, checkpoints) and a brownout slowdown,
all of which the vectorized core serves.  Forcing every node's engine
onto the scalar stepper must not change one byte of the fleet report,
with and without the strict audit.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import audit_scope
from repro.cluster import (
    AdmissionPolicy,
    BreakerPolicy,
    FleetConfig,
    NodeFaultPlan,
    TenantSpec,
    UpgradePlan,
    run_fleet,
)
from repro.cluster.node import Node
from repro.faults.events import MIN_LINK_FACTOR
from repro.serving.engine_core import counters_snapshot, reset_counters
from repro.serving.request import RetryPolicy


def _payload(config: FleetConfig, scalar: bool) -> str:
    """The fleet report's payload, with every node's engine pinned to
    the scalar stepper when ``scalar`` (else left on ``auto``)."""
    begin = Node.begin

    def scalar_begin(node):
        node.engine.engine_mode = "scalar"
        begin(node)

    reset_counters()
    if scalar:
        with mock.patch.object(Node, "begin", scalar_begin):
            report = run_fleet(config)
    else:
        report = run_fleet(config)
    counters = counters_snapshot()
    expected = "scalar_runs" if scalar else "vectorized_runs"
    assert counters[expected] > 0 and counters[expected] == (
        counters["scalar_runs"] + counters["vectorized_runs"]
    )
    return json.dumps(report.to_payload(), sort_keys=True)


def _assert_cores_agree(config: FleetConfig) -> None:
    assert _payload(config, scalar=True) == _payload(config, scalar=False)


def _fleet_chaos(seed: int) -> FleetConfig:
    """The perfbench ``fleet_chaos`` workload's fleet, verbatim."""
    return FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 2)),
        max_decode_batch=8,
        num_requests=3_600,
        rate=300.0,
        seed=seed,
        timeout=2.0,
        tenants=(
            TenantSpec(name="gold", tier=0, share=0.25, weight=4.0, ttft_slo=2.0),
            TenantSpec(name="silver", tier=1, share=0.35, weight=2.0),
            TenantSpec(name="bronze", tier=2, share=0.40, weight=1.0,
                       quota_rate=8.0, quota_burst=8.0),
        ),
        admission=AdmissionPolicy(
            target_queue_delay=0.4, shed_queue_delay=0.8, max_queue_delay=20.0
        ),
        breaker=BreakerPolicy(),
        plan=NodeFaultPlan.from_spec(
            "crash:gaudi2-1@t=2,recover=6;brownout:a100-0@t=1,factor=0.5,until=4"
        ),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fleet_chaos_config_matches_scalar(seed):
    _assert_cores_agree(_fleet_chaos(seed))


def test_hedging_fleet_matches_scalar():
    """Hedges read a live attempt's first token, which fleet nodes copy
    onto the attempt only on demand (``engine.sync_live()``)."""
    config = FleetConfig(
        nodes=(("gaudi2", 2), ("a100", 1)),
        num_requests=96,
        rate=40.0,
        max_decode_batch=4,
        policy="least-loaded",
        timeout=20.0,
        hedge_after=0.05,
        plan=NodeFaultPlan.from_spec("crash:gaudi2-1@t=1,recover=3"),
    )
    scalar = _payload(config, scalar=True)
    assert scalar == _payload(config, scalar=False)
    assert json.loads(scalar)["hedges"] > 0


@st.composite
def fleet_configs(draw):
    """Small heterogeneous fleets exercising every node-level policy."""
    gaudi = draw(st.integers(1, 2))
    a100 = draw(st.integers(0, 1))
    nodes = (("gaudi2", gaudi),) + ((("a100", a100),) if a100 else ())
    names = [f"gaudi2-{i}" for i in range(gaudi)] + [f"a100-{i}" for i in range(a100)]
    tenants = ()
    if draw(st.booleans()):
        tenants = (
            TenantSpec(name="gold", tier=0, share=draw(st.floats(0.1, 1.0)),
                       weight=4.0,
                       ttft_slo=draw(st.none() | st.floats(0.2, 3.0))),
            TenantSpec(name="silver", tier=draw(st.integers(0, 2)), share=0.35,
                       weight=2.0,
                       ttft_slo=draw(st.none() | st.floats(0.2, 3.0))),
            TenantSpec(name="bronze", tier=2, share=0.4, weight=1.0,
                       quota_rate=draw(st.none() | st.floats(2.0, 20.0))),
        )
    admission = None
    if tenants and draw(st.booleans()):
        target = draw(st.floats(0.1, 1.0))
        admission = AdmissionPolicy(
            target_queue_delay=target,
            shed_queue_delay=target * 2,
            brownout_max_new_tokens=draw(st.integers(8, 64)),
            max_queue_delay=10.0,
        )
    plan = NodeFaultPlan()
    if draw(st.booleans()):
        at = draw(st.floats(0.2, 3.0))
        plan.crash(draw(st.sampled_from(names)), at,
                   recover_at=draw(st.none() | st.floats(at + 0.5, at + 4.0)))
    if draw(st.booleans()):
        at = draw(st.floats(0.0, 3.0))
        plan.brownout(draw(st.sampled_from(names)), draw(st.floats(0.2, 0.9)),
                      at, until=at + draw(st.floats(0.5, 4.0)))
    if draw(st.booleans()):
        at = draw(st.floats(0.0, 3.0))
        # A down link (0) or any factor the plan accepts.
        plan.degrade_fabric(draw(st.sampled_from(names)),
                            draw(st.just(0.0) | st.floats(MIN_LINK_FACTOR, 0.9)),
                            at, until=at + draw(st.floats(0.5, 4.0)))
    if draw(st.booleans()):
        plan.blip(draw(st.sampled_from(names)), draw(st.floats(0.0, 3.0)),
                  draw(st.floats(0.1, 1.0)))
    return FleetConfig(
        nodes=nodes,
        tp=draw(st.sampled_from([2, 8])),
        max_decode_batch=draw(st.integers(2, 8)),
        num_kv_blocks=draw(st.none() | st.integers(12, 80)),
        num_requests=draw(st.integers(8, 60)),
        rate=draw(st.floats(4.0, 60.0)),
        seed=draw(st.integers(0, 2**16)),
        policy=draw(st.sampled_from(["round-robin", "least-loaded", "latency-aware"])),
        timeout=draw(st.none() | st.floats(0.5, 10.0)),
        retry=RetryPolicy(max_retries=draw(st.integers(0, 3)), jitter=0.5),
        hedge_after=draw(st.none() | st.floats(0.1, 2.0)),
        deadline=draw(st.none() | st.floats(0.2, 3.0)),
        checkpoint_interval=draw(st.integers(1, 64)),
        admission_watermark=draw(st.sampled_from([1.0, 0.9, 0.6])),
        tenants=tenants,
        admission=admission,
        breaker=BreakerPolicy(failure_threshold=2, cooldown=1.0)
        if draw(st.booleans()) else None,
        upgrade=UpgradePlan(start=draw(st.floats(0.0, 3.0)))
        if draw(st.booleans()) else None,
        plan=plan,
    )


@given(config=fleet_configs(), strict=st.booleans())
@settings(max_examples=25, deadline=None)
def test_drawn_fleets_match_scalar(config, strict):
    if strict:
        with audit_scope("strict"):
            _assert_cores_agree(config)
    else:
        _assert_cores_agree(config)
