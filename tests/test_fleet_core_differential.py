"""Fleets on the engine core against the pinned scalar reference.

Fleet nodes bind a ResiliencePolicy (tiers, TTFT deadlines, graceful
exhaustion, admission watermark, checkpoints) and a brownout slowdown.
Every fleet payload below must equal the digest the per-object scalar
stepper produced before it was deleted (``tests/engine_digests.json``),
with and without the strict audit, and binding a RunContext -- which
makes every node's decode bursts single steps and records every span
and metric -- must not change one byte of it.  Neither may parking: a
node's decode burst that a fleet event's horizon cuts short resumes at
the next event without a scheduler iteration, and forcing that off
changes no pinned payload.
"""

import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunContext
from repro.audit import audit_scope
from repro.serving.engine_core import counters_snapshot, reset_counters
from tests import engine_goldens
from tests.engine_goldens import (
    autoscale_fleet_config,
    diurnal_fleet_config,
    drawn_fleet_config,
    fleet_chaos_config,
    fleet_payload,
    hedging_fleet_config,
)


def _assert_pinned(name: str, config) -> str:
    reset_counters()
    payload = fleet_payload(config)
    counters = counters_snapshot()
    assert counters["vectorized_runs"] > 0 and counters["scalar_steps"] == 0
    assert engine_goldens.digest(payload) == engine_goldens.load_goldens()[name]
    return payload


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fleet_chaos_config_matches_scalar(seed):
    """The perfbench ``fleet_chaos`` workload's fleet."""
    _assert_pinned(f"fleet_chaos_{seed}", fleet_chaos_config(seed))


def test_hedging_fleet_matches_scalar():
    """Hedges read a live attempt's first token, which fleet nodes copy
    onto the attempt only on demand (``engine.sync_live()``)."""
    payload = _assert_pinned("fleet_hedging", hedging_fleet_config())
    assert json.loads(payload)["hedges"] > 0


@pytest.mark.parametrize("name,config_fn", [
    ("fleet_autoscale", autoscale_fleet_config),
    ("fleet_diurnal", diurnal_fleet_config),
])
def test_event_loop_paths_pinned(name, config_fn):
    """Paths no drawn fleet takes: nodes provisioned and retired inside
    the event loop, and diurnal arrivals attributed to tenants.  The
    digests hold plain, under the strict audit and with a RunContext
    bound."""
    payload = _assert_pinned(name, config_fn())
    with audit_scope("strict"):
        assert fleet_payload(config_fn()) == payload
    assert fleet_payload(config_fn(), RunContext.create()) == payload
    report = json.loads(payload)
    if name == "fleet_autoscale":
        assert report["scale_ups"] > 0 and report["scale_downs"] > 0
        assert "retired" in {node["final_state"] for node in report["node_reports"]}


def test_drawn_fleets_match_scalar():
    """The pinned seeded draws of ``drawn_fleet_config``."""
    for seed in range(engine_goldens.FUZZ_DRAWS):
        _assert_pinned(f"fuzz_fleet_{seed}", drawn_fleet_config(seed))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_drawn_fleets_observer_neutral(seed):
    """A drawn fleet prints the same payload with a RunContext bound as
    without; odd seeds run under the strict audit."""
    config = drawn_fleet_config(seed)

    def both():
        return fleet_payload(config), fleet_payload(config, RunContext.create())

    if seed % 2:
        with audit_scope("strict"):
            plain, observed = both()
    else:
        plain, observed = both()
    assert plain == observed


def _fabric_faulted(seed):
    return any(
        event.kind.value.startswith("fabric")
        for event in drawn_fleet_config(seed).plan.events
    )


#: Every pinned fleet digest with no drawn fleet but those whose plan
#: degrades a node's fabric, by name: (config builder, its arguments).
PINNED_FLEETS = {
    **{f"fleet_chaos_{seed}": (fleet_chaos_config, seed) for seed in range(4)},
    "fleet_hedging": (hedging_fleet_config,),
    "fleet_autoscale": (autoscale_fleet_config,),
    "fleet_diurnal": (diurnal_fleet_config,),
    **{
        f"fuzz_fleet_{seed}": (drawn_fleet_config, seed)
        for seed in range(engine_goldens.FUZZ_DRAWS) if _fabric_faulted(seed)
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_FLEETS))
def test_parking_changes_no_pinned_fleet(name, parking):
    """Plain runs park (an audited or observed node never does), and
    the payload is the pinned one plain, under the strict audit, with a
    RunContext bound, and plain with parking forced off."""
    config_fn, *args = PINNED_FLEETS[name]

    def run(mode):
        parking.resumed.clear()
        with audit_scope("strict" if mode == "strict" else "off"):
            ctx = RunContext.create() if mode == "observed" else None
            payload = fleet_payload(config_fn(*args), ctx)
        return payload, len(parking.resumed)

    plain, plain_resumes = run("plain")
    assert engine_goldens.digest(plain) == engine_goldens.load_goldens()[name]
    if not name.startswith("fuzz_"):
        assert plain_resumes > 0
    assert run("strict") == (plain, 0)
    assert run("observed") == (plain, 0)
    parking.off = True
    assert run("plain") == (plain, 0)


@pytest.mark.parametrize("name", ["fleet_chaos_0", "fleet_hedging"])
def test_ledger_holds_only_requests_in_flight(monkeypatch, name):
    """A fleet builds each FleetRequest at its arrival and drops it once
    it is terminal with every attempt reaped.  The live count, sampled
    after every ``Node.reap`` as perfbench's ``cluster.retained_requests``
    samples it, never exceeds the most requests that had arrived and
    were not yet terminal, and none outlives the run.  The hedging fleet
    has hedges that finish after their request did."""
    from repro.cluster.fleet import _FleetRun
    from repro.cluster.gateway import FleetRequest
    from repro.cluster.node import Node

    init, reap, arrive = FleetRequest.__init__, Node.reap, _FleetRun.handle_arrival
    live = {}
    high = {"live": 0, "in_flight": 0}

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        key = id(self)
        live[key] = weakref.ref(self, lambda _ref, key=key: live.pop(key, None))

    def sampled_reap(self):
        done = reap(self)
        high["live"] = max(high["live"], len(live))
        return done

    def counted_arrival(self, fleet_id):
        arrive(self, fleet_id)
        high["in_flight"] = max(high["in_flight"], self.arrivals - self.terminal_count)

    monkeypatch.setattr(FleetRequest, "__init__", tracked_init)
    monkeypatch.setattr(Node, "reap", sampled_reap)
    monkeypatch.setattr(_FleetRun, "handle_arrival", counted_arrival)
    config_fn, *args = PINNED_FLEETS[name]
    config = config_fn(*args)
    with audit_scope("off"):
        payload = fleet_payload(config)
    assert engine_goldens.digest(payload) == engine_goldens.load_goldens()[name]
    assert 0 < high["live"] <= high["in_flight"] < config.num_requests
    assert not live
    if name == "fleet_hedging":
        report = json.loads(payload)
        assert report["attempt_finished"] > report["finished"]  # late hedges


def test_pump_scans_only_when_headroom_can_have_appeared(monkeypatch):
    """On the perfbench fleet the pump mostly finds every node full; it
    rescans only after a reap, a node turning routable or provisioned,
    or a gating breaker's reopen time.  Scanning at every pump instead
    dispatches the same attempts and prints the same payload."""
    from repro.cluster.fleet import _FleetRun

    scan = _FleetRun._next_headroom
    pump = _FleetRun.pump
    runs = []
    always_scan = False

    def counted_scan(self):
        runs[-1]["scans"] += 1
        return scan(self)

    def counted_pump(self):
        if not runs or runs[-1]["fleet"] is not self:
            runs.append({"fleet": self, "scans": 0, "pumps": 0})
        runs[-1]["pumps"] += 1
        if always_scan:
            self._headroom_at = -float("inf")
        pump(self)

    monkeypatch.setattr(_FleetRun, "_next_headroom", counted_scan)
    monkeypatch.setattr(_FleetRun, "pump", counted_pump)
    with audit_scope("off"):
        flagged = fleet_payload(fleet_chaos_config(0))
        always_scan = True
        rescanned = fleet_payload(fleet_chaos_config(0))
    assert flagged == rescanned
    assert engine_goldens.digest(flagged) == engine_goldens.load_goldens()["fleet_chaos_0"]
    first, second = runs
    assert first["pumps"] == second["pumps"] > 7000
    assert first["fleet"].gateway.stats.dispatches == (
        second["fleet"].gateway.stats.dispatches
    ) == json.loads(flagged)["attempts"]
    assert second["scans"] > first["pumps"] // 2
    assert first["scans"] < first["pumps"] // 3


def _autoscaled_admission_config():
    """A single-tenant admission queue on one node that the autoscaler
    grows twice: each provisioned node is new headroom."""
    from repro.cluster import AdmissionPolicy, AutoscalePolicy, FleetConfig, TenantSpec

    return FleetConfig(
        nodes=(("gaudi2", 1),), max_decode_batch=4, num_requests=300, rate=30.0,
        diurnal=True, diurnal_period=10.0, timeout=20.0,
        tenants=(TenantSpec(name="gold", tier=0, share=1.0),),
        admission=AdmissionPolicy(
            target_queue_delay=5.0, shed_queue_delay=10.0, max_queue_delay=30.0
        ),
        autoscale=AutoscalePolicy(
            target_p99_ttft=1.0, evaluate_interval=1.0, cooldown=2.0,
            scale_down_factor=0.9, max_nodes=3, provision_delay=0.5,
        ),
    )


def _reopening_breakers_config():
    """Short timeouts open single-failure breakers on emptied nodes:
    headroom the pump finds again only at each breaker's reopen time."""
    from repro.cluster import AdmissionPolicy, BreakerPolicy, FleetConfig, TenantSpec

    return FleetConfig(
        nodes=(("gaudi2", 2),), max_decode_batch=4, num_requests=200, rate=40.0,
        timeout=0.5,
        tenants=(TenantSpec(name="gold", tier=0, share=1.0),),
        admission=AdmissionPolicy(
            target_queue_delay=5.0, shed_queue_delay=10.0, max_queue_delay=30.0
        ),
        breaker=BreakerPolicy(failure_threshold=1, cooldown=0.3),
    )


@pytest.mark.parametrize("config_fn", [
    _autoscaled_admission_config, _reopening_breakers_config,
], ids=["provisioned-node", "breaker-reopen"])
def test_pump_skips_hold_under_the_strict_audit(config_fn):
    """The strict audit rescans at every pump that skips its scan and
    raises if the scan finds headroom; the payload matches the
    unaudited run's."""
    with audit_scope("strict"):
        audited = fleet_payload(config_fn())
    with audit_scope("off"):
        assert fleet_payload(config_fn()) == audited
    report = json.loads(audited)
    assert report["scale_ups"] > 0 or report["breaker_short_circuits"] > 0
