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
