"""Observed and device-fault runs against the pinned scalar reference,
and observer neutrality.

Device fault injection, the step watchdog and observation (a bound
tracer or metrics registry) used to pin a run to the per-object scalar
stepper.  They now run on the engine core with one-step decode bursts;
the chaos CLI flows, a watchdog trip and traced runs (chrome trace and
metrics snapshot included) must reproduce the digests that stepper
recorded (``tests/engine_digests.json``).  Binding a RunContext must
not change a report byte.
"""

import json

import pytest

from repro.api import RunContext
from repro.cluster import FleetConfig, NodeFaultPlan
from tests import engine_goldens
from tests.engine_goldens import CASES, chaos_run, fleet_payload

#: Cases checked here; the rest belong to the engine-core, engine-type,
#: stepper, fleet and trace test files.
_HERE = ("traced_", "chaos_", "watchdog")


def test_every_case_is_pinned():
    assert set(CASES) == set(engine_goldens.load_goldens())


@pytest.mark.parametrize("name", [name for name in CASES if name.startswith(_HERE)])
def test_matches_scalar(name):
    payload = CASES[name]()
    assert engine_goldens.digest(payload) == engine_goldens.load_goldens()[name]


class TestObserverNeutrality:
    """Report bytes with and without a RunContext bound."""

    def test_serve(self):
        def run(ctx):
            requests = engine_goldens._sonnet(64, 3, 30.0, 1)
            report = engine_goldens._engine(max_decode_batch=16, ctx=ctx).run(requests)
            return report.to_json(), engine_goldens.states(requests)

        assert run(RunContext.create()) == run(None)

    @pytest.mark.parametrize("flow", ["chaos_fail_device_json", "chaos_multi_fault"])
    def test_chaos(self, flow):
        assert chaos_run(flow, RunContext.create()) == chaos_run(flow)

    def test_tp2_fleet(self):
        config = FleetConfig(
            nodes=(("gaudi2", 2), ("a100", 1)),
            tp=2,
            num_requests=60,
            rate=30.0,
            max_decode_batch=4,
            timeout=5.0,
            deadline=1.5,
            plan=NodeFaultPlan.from_spec(
                "crash:gaudi2-1@t=1,recover=3;fabric:a100-0@t=0.5,factor=0.25,until=2"
            ),
        )
        ctx = RunContext.create()
        observed = fleet_payload(config, ctx)
        assert observed == fleet_payload(config)
        assert json.loads(observed)["finished"] > 0
        assert ctx.metrics.counter("engine.steps").value > 0
