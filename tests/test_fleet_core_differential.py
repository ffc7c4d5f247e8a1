"""Fleets on the engine core against the pinned scalar reference.

Fleet nodes bind a ResiliencePolicy (tiers, TTFT deadlines, graceful
exhaustion, admission watermark, checkpoints) and a brownout slowdown.
Every fleet payload below must equal the digest the per-object scalar
stepper produced before it was deleted (``tests/engine_digests.json``),
with and without the strict audit, and binding a RunContext -- which
makes every node's decode bursts single steps and records every span
and metric -- must not change one byte of it.
"""

import json

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
