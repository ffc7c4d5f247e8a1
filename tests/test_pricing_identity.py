"""Cross-instance pricing caches key on static pricing identity.

Every model, library and fleet node with the same pricing identity
(device, config, tuning knobs, tensor-parallel degree and collective
library fields) shares one set of phase caches, compiled steppers and
collective memos; the fabric's live fault state goes into each
per-call key.  These tests pin both halves: equal identities share,
and no entry ever crosses a static field or a fault state.

CI runs this file under ``REPRO_AUDIT=strict`` (sampled shared hits are
recomputed and compared) and under ``REPRO_NO_MEMO=1``; tests that are
about sharing turn the memo on for their own scope.
"""

import pytest

from repro.cluster import FleetConfig, NodeFaultPlan
from repro.cluster.fleet import run_fleet
from repro.comm import (
    CollectiveLibrary,
    CollectiveOp,
    DegradedMeshTopology,
    FabricHealth,
    HcclLibrary,
    NcclLibrary,
    P2PMeshTopology,
    SwitchTopology,
)
from repro.core import memo
from repro.faults.chaos import build_degraded_collectives
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.models.llama import (
    LLAMA_3_1_8B,
    DecodeBatchStats,
    LlamaCostModel,
    default_decode_attention,
)
from repro.models.tensor_parallel import TensorParallelConfig

CRASH = "crash:gaudi2-1@t=1,recover=3"
FABRIC_CHAOS = (
    "fabric:gaudi2-0@t=0.5,factor=0.25,until=3;"
    f"fabric:a100-0@t=1,factor=0.5,until=2.5;{CRASH}"
)


@pytest.fixture
def memo_on():
    """Memo enabled for the test (the file also runs under
    ``REPRO_NO_MEMO=1``), starting from empty caches."""
    previous = memo.memoization_enabled()
    memo.set_enabled(True)
    memo.clear_caches()
    try:
        yield
    finally:
        memo.set_enabled(previous)


def _fleet(chaos: str) -> FleetConfig:
    return FleetConfig(
        nodes=((GAUDI2, 2), (A100, 1)),
        max_decode_batch=8,
        num_requests=40,
        rate=20.0,
        seed=3,
        plan=NodeFaultPlan.from_spec(chaos),
    )


def _pricing_entries():
    """Entries held by every llama and collective pricing cache."""
    return {
        name: entry["entries"]
        for name, entry in memo.cache_stats().items()
        if name.startswith(("llama.", "comm."))
    }


def _fresh_payload(config: FleetConfig):
    memo.clear_caches()
    return run_fleet(config).to_payload()


def test_second_fleet_is_served_from_shared_caches(memo_on):
    config = _fleet(FABRIC_CHAOS)
    first = run_fleet(config).to_payload()
    entries = _pricing_entries()
    hits = sum(e["hits"] for n, e in memo.cache_stats().items() if n.startswith("llama."))
    second = run_fleet(config).to_payload()
    # Every price the second fleet needs is already cached: no pricing
    # cache grows (audit recomputes overwrite their own key).
    assert _pricing_entries() == entries
    assert any(name.startswith("llama.prefill[") for name in entries)
    assert sum(
        e["hits"] for n, e in memo.cache_stats().items() if n.startswith("llama.")
    ) > hits
    with memo.disabled():
        uncached = run_fleet(config).to_payload()
    assert first == second == uncached


@pytest.mark.parametrize("order", [("degraded", "healthy"), ("healthy", "degraded")])
def test_fault_state_order_does_not_leak(order):
    configs = {"degraded": _fleet(FABRIC_CHAOS), "healthy": _fleet(CRASH)}
    fresh = {name: _fresh_payload(config) for name, config in configs.items()}
    memo.clear_caches()
    back_to_back = {name: run_fleet(configs[name]).to_payload() for name in order}
    assert back_to_back == fresh
    assert fresh["degraded"] != fresh["healthy"]


_HCCL_EFFICIENCY = {op: 1.0 for op in CollectiveOp}

#: One library per static field, each differing from ``base`` in it alone.
_VARIANTS = {
    "base": lambda: HcclLibrary(P2PMeshTopology()),
    "library-type": lambda: CollectiveLibrary(P2PMeshTopology(), 0.87, _HCCL_EFFICIENCY, "HCCL"),
    "name": lambda: CollectiveLibrary(P2PMeshTopology(), 0.87, _HCCL_EFFICIENCY, "HCCL2"),
    "topology-type": lambda: HcclLibrary(DegradedMeshTopology(P2PMeshTopology())),
    "num_devices": lambda: HcclLibrary(P2PMeshTopology(num_devices=16)),
    "link_bandwidth": lambda: HcclLibrary(P2PMeshTopology(link_bandwidth=25e9)),
    "protocol_efficiency": lambda: CollectiveLibrary(
        P2PMeshTopology(), 0.9, _HCCL_EFFICIENCY, "HCCL"
    ),
    "op_efficiency": lambda: CollectiveLibrary(
        P2PMeshTopology(), 0.87, {**_HCCL_EFFICIENCY, CollectiveOp.ALL_REDUCE: 0.9}, "HCCL"
    ),
    "switch": lambda: NcclLibrary(SwitchTopology()),
}


def test_static_fields_separate_pricing_keys(memo_on):
    libraries = {name: build() for name, build in _VARIANTS.items()}
    keys = {name: lib.pricing_key() for name, lib in libraries.items()}
    assert len(set(keys.values())) == len(keys)
    tp_keys = {TensorParallelConfig(degree=d, library=lib).pricing_key()
               for d in (2, 8) for lib in libraries.values()}
    assert len(tp_keys) == 2 * len(libraries)
    # Equal identities share one memo, whatever object built them.
    base = libraries["base"]
    assert HcclLibrary(P2PMeshTopology())._run_cache is base._run_cache
    assert base.with_topology(P2PMeshTopology())._run_cache is base._run_cache
    # Distinct identities never do, even after the base priced the call.
    base_time = base.all_reduce(1 << 20, 8).time
    for name, library in libraries.items():
        if name != "base":
            assert library._run_cache is not base._run_cache
        cached = library.all_reduce(1 << 20, 8).time
        with memo.disabled():
            assert cached == library.all_reduce(1 << 20, 8).time
    assert libraries["link_bandwidth"].all_reduce(1 << 20, 8).time != base_time


def test_tp8_steppers_never_cross_fault_states(memo_on):
    device = get_backend(GAUDI2)
    attention = default_decode_attention(device)
    stats = DecodeBatchStats.from_context_lens([300, 900, 1700, 2500])
    health = FabricHealth()
    model = LlamaCostModel(
        LLAMA_3_1_8B, device, tp=build_degraded_collectives(GAUDI2, 8, health)[0]
    )

    def priced():
        cached = model.decode_step_stats(stats, attention).time
        with memo.disabled():
            assert cached == model.decode_step_stats(stats, attention).time
        return cached

    healthy_time = priced()
    healthy = model.decode_stepper(stats.batch, attention)
    health.set_link_factor(0, 1, 0.25)
    degraded_time = priced()
    degraded = model.decode_stepper(stats.batch, attention)
    assert degraded is not healthy and degraded_time != healthy_time

    # A second node on its own, healthy fabric gets the healthy stepper,
    # never the degraded one compiled last.
    other = LlamaCostModel(
        LLAMA_3_1_8B, device, tp=build_degraded_collectives(GAUDI2, 8, FabricHealth())[0]
    )
    assert other.decode_stepper(stats.batch, attention) is healthy

    health.restore_link(0, 1)
    assert model.decode_stepper(stats.batch, attention) is healthy
    assert priced() == healthy_time
    health.set_link_factor(0, 1, 0.25)
    assert other.decode_stepper(stats.batch, attention) is healthy
    assert model.decode_stepper(stats.batch, attention) is degraded
    assert priced() == degraded_time


def test_models_with_distinct_tp_identities_never_share(memo_on):
    device = get_backend(GAUDI2)
    tuned = CollectiveLibrary(P2PMeshTopology(), 0.5, _HCCL_EFFICIENCY, "HCCL")
    configs = [
        TensorParallelConfig(degree=1),
        TensorParallelConfig.for_device(device, 2),
        TensorParallelConfig.for_device(device, 8),
        TensorParallelConfig(degree=8, library=tuned),
    ]
    times = []
    for tp in configs:
        model = LlamaCostModel(LLAMA_3_1_8B, device, tp=tp)
        cached = model.prefill(2, 1000).time
        with memo.disabled():
            assert cached == model.prefill(2, 1000).time
        times.append(cached)
    assert len(set(times)) == len(times)
