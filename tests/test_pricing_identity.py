"""Cross-instance pricing caches key on static pricing identity.

Every model, library and fleet node with the same pricing identity
(device, config, tuning knobs, tensor-parallel degree and collective
library fields) shares one set of phase caches, compiled steppers and
collective memos; the fabric's live fault state goes into each
per-call key.  These tests pin both halves: equal identities share,
and no entry ever crosses a static field or a fault state.  The
end-to-end lookups above the models (DLRM forwards, Fig. 17's serving
points) key on the same identity, so figure re-runs only hit.

CI runs this file under ``REPRO_AUDIT=strict`` (sampled shared hits are
recomputed and compared) and under ``REPRO_NO_MEMO=1``; tests that are
about sharing turn the memo on for their own scope.
"""

import dataclasses

import pytest

from repro.api import RunContext
from repro.audit import audit_scope
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
from repro.figures import figure17, run_figure
from repro.figures.figure17 import serve_point
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.kernels.gather_scatter import run_gather_scatter
from repro.kernels.stream import StreamOp, run_stream
from repro.models import dlrm
from repro.models.dlrm import RM1_CONFIG, RM2_CONFIG, DlrmCostModel, DlrmForwardEstimate
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaCostModel,
    default_decode_attention,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine, dynamic_sonnet_requests

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
_IC = GAUDI2_SPEC.interconnect


def _mesh(**changes) -> P2PMeshTopology:
    return dataclasses.replace(P2PMeshTopology.from_spec(GAUDI2_SPEC, 8), **changes)


#: One library per static field, each differing from ``base`` in it alone.
_VARIANTS = {
    "base": lambda: HcclLibrary(_mesh(), _IC),
    "library-type": lambda: CollectiveLibrary(_mesh(), 0.87, _HCCL_EFFICIENCY, "HCCL", 300e9),
    "name": lambda: CollectiveLibrary(_mesh(), 0.87, _HCCL_EFFICIENCY, "HCCL2", 300e9),
    "topology-type": lambda: HcclLibrary(DegradedMeshTopology(_mesh()), _IC),
    "num_devices": lambda: HcclLibrary(_mesh(num_devices=16), _IC),
    "link_bandwidth": lambda: HcclLibrary(_mesh(link_bandwidth=25e9), _IC),
    "protocol_efficiency": lambda: CollectiveLibrary(
        _mesh(), 0.9, _HCCL_EFFICIENCY, "HCCL", 300e9
    ),
    "op_efficiency": lambda: CollectiveLibrary(
        _mesh(), 0.87, {**_HCCL_EFFICIENCY, CollectiveOp.ALL_REDUCE: 0.9}, "HCCL", 300e9
    ),
    "per_device_bandwidth": lambda: HcclLibrary(
        _mesh(), dataclasses.replace(_IC, per_device_bandwidth=600e9)
    ),
    "switch": lambda: NcclLibrary(SwitchTopology.from_spec(A100_SPEC, 8), A100_SPEC.interconnect),
}


def _degraded_tp8(health: FabricHealth) -> TensorParallelConfig:
    """A TP-8 gaudi2 config priced through a view of ``health``."""
    library = get_backend(GAUDI2).collective_library().degraded(health)
    return TensorParallelConfig(degree=8, library=library)


def test_static_fields_separate_pricing_keys(memo_on):
    libraries = {name: build() for name, build in _VARIANTS.items()}
    keys = {name: lib.pricing_key() for name, lib in libraries.items()}
    assert len(set(keys.values())) == len(keys)
    tp_keys = {TensorParallelConfig(degree=d, library=lib).pricing_key()
               for d in (2, 8) for lib in libraries.values()}
    assert len(tp_keys) == 2 * len(libraries)
    # Equal identities share one memo, whatever object built them.
    base = libraries["base"]
    assert get_backend(GAUDI2).collective_library()._run_cache is base._run_cache
    assert base.with_topology(_mesh())._run_cache is base._run_cache
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
        LLAMA_3_1_8B, device, tp=_degraded_tp8(health)
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
        LLAMA_3_1_8B, device, tp=_degraded_tp8(FabricHealth())
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
    tuned = CollectiveLibrary(_mesh(), 0.5, _HCCL_EFFICIENCY, "HCCL", 300e9)
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


def _generate_stats():
    return memo.cache_stats().get("llama.generate", {"hits": 0, "misses": 0, "entries": 0})


def _fig12_sweep():
    """A Fig. 12-style grid: a fresh model per point, TP 1 and TP 8."""
    estimates = []
    for backend in (GAUDI2, A100):
        device = get_backend(backend)
        for tp, config in ((1, LLAMA_3_1_8B), (8, LLAMA_3_1_70B)):
            for batch in (1, 16):
                for output_len in (25, 100):
                    model = LlamaCostModel(
                        config, device, TensorParallelConfig.for_device(device, tp)
                    )
                    estimates.append(model.generate(batch, 100, output_len))
    return estimates


def test_repeated_generate_sweep_only_hits(memo_on):
    first = _fig12_sweep()
    before = _generate_stats()
    assert before["entries"] == len(first)
    # Sampled audit recomputes would count as misses; this pass counts
    # lookups, the next one checks values under the ambient audit mode.
    with audit_scope("off"):
        second = _fig12_sweep()
    after = _generate_stats()
    assert after["entries"] == before["entries"]
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == len(first)
    assert second == first
    assert _fig12_sweep() == first
    with memo.disabled():
        assert _fig12_sweep() == first


@pytest.mark.parametrize("order", [("degraded", "healthy"), ("healthy", "degraded")])
def test_tp8_generate_never_crosses_fault_states(memo_on, order):
    device = get_backend(GAUDI2)
    degraded_health = FabricHealth()
    degraded_health.set_link_factor(0, 1, 0.25)
    models = {
        name: LlamaCostModel(
            LLAMA_3_1_8B, device, tp=_degraded_tp8(health)
        )
        for name, health in (("healthy", FabricHealth()), ("degraded", degraded_health))
    }
    with memo.disabled():
        fresh = {name: model.generate(16, 100, 200) for name, model in models.items()}
    assert fresh["degraded"] != fresh["healthy"]
    cached = {name: models[name].generate(16, 100, 200) for name in order}
    assert cached == fresh
    assert _generate_stats()["entries"] == 2


def _kernel_grid():
    device = get_backend(GAUDI2)
    streams = [
        run_stream(device=device, op=op, num_elements=n, access_bytes=access,
                   unroll=unroll, num_cores=cores, compute_chain=chain)
        for op in StreamOp
        for n, access, unroll, cores, chain in (
            (1 << 16, 256, 1, 1, 1), (1 << 16, 64, 4, 1, 1),
            (1 << 20, 256, 4, None, 1), (1 << 20, 256, 4, 8, 1),
            (1 << 20, 256, 4, 8, 4),
        )
    ]
    gathers = [
        run_gather_scatter(device=device, vector_bytes=vector_bytes,
                           fraction_accessed=fraction, num_vectors=1 << 16,
                           is_scatter=is_scatter)
        for vector_bytes in (16, 256, 2048)
        for fraction in (0.01, 1.0)
        for is_scatter in (False, True)
    ]
    return [dataclasses.asdict(result) for result in streams + gathers]


def test_tpc_kernel_grids_match_uncached(memo_on):
    first = _kernel_grid()
    assert _kernel_grid() == first
    with memo.disabled():
        assert _kernel_grid() == first
    stats = memo.cache_stats()
    assert stats["kernels.stream[Gaudi-2]"]["hits"] > 0
    assert stats["kernels.gather_scatter[Gaudi-2]"]["hits"] > 0


def test_traced_stream_records_on_a_cache_hit(memo_on):
    device = get_backend(GAUDI2)
    ctx = RunContext.create()
    first = run_stream(device=device, op=StreamOp.TRIAD, num_elements=1 << 16, ctx=ctx)
    # A sampled audit recompute would count the hit as a miss; count the
    # lookup with the auditor off.
    with audit_scope("off"):
        hits = memo.cache_stats()["kernels.stream[Gaudi-2]"]["hits"]
        second = run_stream(
            device=device, op=StreamOp.TRIAD, num_elements=1 << 16, ctx=ctx
        )
        assert memo.cache_stats()["kernels.stream[Gaudi-2]"]["hits"] == hits + 1
    assert second == first
    spans = [span for span in ctx.tracer.spans if span.name == "stream.triad"]
    assert len(spans) == 2 and spans[1].duration == first.time
    assert ctx.metrics.counter("kernels.stream.calls").value == 2


def _stats(name):
    return memo.cache_stats().get(name, {"hits": 0, "misses": 0, "entries": 0})


def _end_to_end_misses():
    return {name: _stats(name)["misses"] for name in ("dlrm.forward", "figures.fig17.serve")}


def test_figure_reruns_only_hit_end_to_end_points(memo_on):
    run_figure(figure_id="fig11")
    run_figure(figure_id="fig17")
    filled = _end_to_end_misses()
    assert all(filled.values())
    # Sampled audit recomputes would count as misses; count lookups
    # with the auditor off.
    with audit_scope("off"):
        run_figure(figure_id="fig11")
        assert _end_to_end_misses() == filled
        run_figure(figure_id="headline")
        assert _end_to_end_misses() == filled
    assert _stats("dlrm.forward")["hits"] > 0
    assert _stats("figures.fig17.serve")["hits"] > 0


def test_cached_end_to_end_points_match_uncached(memo_on):
    run_figure(figure_id="fig11")
    run_figure(figure_id="fig17")
    forwards = dict(dlrm._FORWARD_CACHE._data)
    assert {device.name for device, _, _ in forwards} == {"Gaudi-2", "A100"}
    for (device, config, batch), cached in forwards.items():
        with memo.disabled():
            fresh = DlrmCostModel(config, device).forward(batch)
        for field in dataclasses.fields(DlrmForwardEstimate):
            assert getattr(cached, field.name) == getattr(fresh, field.name)
    points = dict(figure17._SERVE_CACHE._data)
    assert len(points) == 2 * len(figure17._MAX_DECODE_BATCHES[::2])
    for backend, attention in ((GAUDI2, DecodeAttention.PAGED_OPT),
                               (A100, DecodeAttention.PAGED_CUDA)):
        device = get_backend(backend)
        for max_batch in figure17._MAX_DECODE_BATCHES[::2]:
            model = LlamaCostModel(LLAMA_3_1_8B, device)
            num_requests = figure17._NUM_REQUESTS // 2
            cached = points[(model.pricing_key(), attention, max_batch, num_requests)]
            with memo.disabled():
                fresh = serve_point(model, attention, max_batch, num_requests)
            assert cached._asdict() == fresh._asdict()


def test_serve_point_equals_a_direct_engine_run(memo_on):
    device = get_backend(GAUDI2)
    model = LlamaCostModel(LLAMA_3_1_8B, device)
    point = serve_point(model, DecodeAttention.PAGED_OPT, 16, 24)
    assert serve_point(model, DecodeAttention.PAGED_OPT, 16, 24) is point
    report = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device), DecodeAttention.PAGED_OPT, max_decode_batch=16,
    ).run(dynamic_sonnet_requests(24, seed=7))
    assert point == (report.throughput_tokens_per_s, report.mean_ttft, report.mean_tpot)


def test_fresh_device_never_reads_another_devices_entry(memo_on):
    shared, fresh = get_backend(GAUDI2), get_backend(GAUDI2, fresh=True)
    estimate = DlrmCostModel(RM2_CONFIG, shared).forward(1024)
    point = serve_point(LlamaCostModel(LLAMA_3_1_8B, shared), DecodeAttention.PAGED_OPT, 8, 8)
    before = _end_to_end_misses()
    with audit_scope("off"):
        again = DlrmCostModel(RM2_CONFIG, fresh).forward(1024)
        fresh_point = serve_point(
            LlamaCostModel(LLAMA_3_1_8B, fresh), DecodeAttention.PAGED_OPT, 8, 8
        )
    assert again is not estimate and again == estimate
    assert fresh_point == point
    assert {name: misses - before[name] for name, misses in _end_to_end_misses().items()} == {
        "dlrm.forward": 1, "figures.fig17.serve": 1,
    }


def test_cached_forward_breakdown_is_read_only(memo_on):
    estimate = DlrmCostModel(RM1_CONFIG, get_backend(A100)).forward(512)
    with pytest.raises(TypeError):
        estimate.breakdown["embedding"] = 0.0
    assert DlrmCostModel(RM1_CONFIG, get_backend(A100)).forward(512) == estimate
