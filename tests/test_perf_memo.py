"""Golden-equivalence and bookkeeping tests for the memoization layer.

The fast path is only admissible if it is invisible: cached and
cold-cache runs must produce byte-identical reports, the incremental
decode statistics must match a from-scratch rebuild, and unobserved
serving runs must not allocate observability state per step.
"""

import pytest

from repro.core import memo
from repro.core.memo import CostCache
from repro.core.parallel import resolve_worker_count
from repro.hw.backend import get_backend
from repro.hw.spec import DType
from repro.models.llama import (
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaCostModel,
)
from repro.serving import (
    LlmServingEngine,
    dynamic_sonnet_requests,
    fixed_length_requests,
)
from repro.serving.loadgen import sweep_seeds
from repro.serving.request import Request
from repro.serving.scheduler import ContinuousBatchingScheduler, _insort_by_arrival


def _fresh_devices():
    """Devices with cleared caches (the singletons persist across tests)."""
    memo.clear_caches()
    return get_backend("gaudi2"), get_backend("a100")


def _activity_tuple(activity):
    return (
        activity.matrix_seconds,
        activity.matrix_active_weighted,
        activity.vector_seconds,
        activity.memory_seconds,
        activity.comm_seconds,
    )


class TestCostCache:
    def test_miss_then_hit(self):
        cache = CostCache("test.cache", maxsize=4)
        assert cache.get(("a",)) is None
        cache.put(("a",), 1.0)
        assert cache.get(("a",)) == 1.0
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_eviction_order(self):
        cache = CostCache("test.evict", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_disabled_scope_bypasses(self):
        cache = CostCache("test.disabled", maxsize=4)
        cache.put("k", 1)
        with memo.disabled():
            assert cache.get("k") is None
            cache.put("k2", 2)
        assert cache.get("k") == 1
        assert cache.get("k2") is None

    def test_clear_resets_counters(self):
        cache = CostCache("test.clear", maxsize=4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0, "maxsize": 4,
        }

    def test_registry_stats_aggregate_by_name(self):
        a = CostCache("test.shared-name", maxsize=4)
        b = CostCache("test.shared-name", maxsize=4)
        a.put("k", 1)
        a.get("k")
        b.get("missing")
        entry = memo.cache_stats()["test.shared-name"]
        assert entry["caches"] == 2
        assert entry["hits"] == 1
        assert entry["misses"] == 1

    def test_publish_metrics_adds_only_deltas(self):
        from repro.obs.metrics import MetricsRegistry

        cache = CostCache("test.publish", maxsize=4)
        cache.get("miss")
        registry = MetricsRegistry()
        memo.publish_metrics(registry)
        memo.publish_metrics(registry)  # second publish must be a no-op
        assert registry.counter("memo.test.publish.misses").value == 1


class TestDeviceCacheHits:
    def test_gemm_repeats_hit(self):
        gaudi, _ = _fresh_devices()
        first = gaudi.gemm(512, 512, 512, DType.BF16)
        hits_before = gaudi._gemm_cache.hits
        second = gaudi.gemm(512, 512, 512, DType.BF16)
        assert gaudi._gemm_cache.hits == hits_before + 1
        assert first is second

    def test_gemm_cached_equals_uncached(self):
        gaudi, a100 = _fresh_devices()
        shapes = [(256, 4096, 1024), (4096, 4096, 4096), (33, 517, 129)]
        for device in (gaudi, a100):
            for m, k, n in shapes:
                warm = device.gemm(m, k, n, DType.BF16)
                warm2 = device.gemm(m, k, n, DType.BF16)
                with memo.disabled():
                    cold = device.gemm(m, k, n, DType.BF16)
                assert warm2 is warm
                assert cold == warm

    def test_gaudi3_uses_own_mme(self):
        from repro.hw.gaudi3 import Gaudi3Device

        memo.clear_caches()
        device = Gaudi3Device()
        result = device.gemm(1024, 1024, 1024, DType.BF16)
        with memo.disabled():
            cold = device.gemm(1024, 1024, 1024, DType.BF16)
        assert result == cold


class TestDecodeBatchStats:
    def test_from_context_lens_aggregates(self):
        stats = DecodeBatchStats.from_context_lens([100, 256, 300], block_size=128)
        assert stats.batch == 3
        assert stats.total_context == 656
        assert stats.max_context == 300
        # 100 -> 1 block, 256 -> 2 blocks, 300 -> 3 blocks
        assert stats.total_blocks == 6

    def test_advanced_matches_rebuild(self):
        lens = [1, 127, 128, 129, 255, 256, 1000]
        stats = DecodeBatchStats.from_context_lens(lens, block_size=128)
        for step in range(1, 300):
            stats = stats.advanced()
            rebuilt = DecodeBatchStats.from_context_lens(
                [c + step for c in lens], block_size=128
            )
            assert stats == rebuilt

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecodeBatchStats.from_context_lens([])


class TestDecodeEquivalence:
    @pytest.mark.parametrize("attention", list(DecodeAttention))
    def test_decode_step_cached_equals_cold(self, attention):
        gaudi, a100 = _fresh_devices()
        device = a100 if attention is DecodeAttention.PAGED_CUDA else gaudi
        model = LlamaCostModel(LLAMA_3_1_8B, device)
        lens = [173, 512, 64, 2048, 128]
        warm1 = model.decode_step(len(lens), lens, attention)
        warm2 = model.decode_step(len(lens), lens, attention)
        with memo.disabled():
            cold = model.decode_step(len(lens), lens, attention)
        for phase in (warm1, warm2):
            assert phase.time == cold.time
            assert _activity_tuple(phase.activity) == _activity_tuple(cold.activity)

    def test_decode_step_stats_matches_list_form(self):
        gaudi, _ = _fresh_devices()
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        lens = [100, 200, 300, 400]
        stats = DecodeBatchStats.from_context_lens(lens)
        by_list = model.decode_step(len(lens), lens, DecodeAttention.PAGED_OPT)
        by_stats = model.decode_step_stats(stats, DecodeAttention.PAGED_OPT)
        assert by_stats.time == by_list.time
        assert _activity_tuple(by_stats.activity) == _activity_tuple(by_list.activity)

    def test_prefill_cached_equals_cold(self):
        gaudi, _ = _fresh_devices()
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        warm = model.prefill(2, 1024)
        warm2 = model.prefill(2, 1024)
        with memo.disabled():
            cold = model.prefill(2, 1024)
        assert warm2.time == warm.time == cold.time
        assert _activity_tuple(warm.activity) == _activity_tuple(cold.activity)


def _serving_report_dict(num_requests=24, seed=3):
    engine = LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
        DecodeAttention.PAGED_OPT,
        max_decode_batch=8,
    )
    return engine.run(dynamic_sonnet_requests(num_requests, seed=seed)).to_dict()


class TestServingEquivalence:
    def test_report_byte_identical_memo_on_off(self):
        memo.clear_caches()
        warm_cold_caches = _serving_report_dict()
        warm = _serving_report_dict()  # caches fully populated
        with memo.disabled():
            cold = _serving_report_dict()
        assert warm_cold_caches == cold
        assert warm == cold

    def test_figure_result_byte_identical_memo_on_off(self):
        from repro.figures import run_figure

        memo.clear_caches()
        warm = run_figure(figure_id="fig12", fast=True)
        warm2 = run_figure(figure_id="fig12", fast=True)
        with memo.disabled():
            cold = run_figure(figure_id="fig12", fast=True)
        for result in (warm, warm2):
            assert result.rows == cold.rows
            assert result.summary == cold.summary
            assert result.text == cold.text

    def test_observed_run_equals_unobserved(self):
        """Binding a RunContext disables the llama-term caches (their
        allreduce side effects must fire); the report must not move."""
        from repro.api import RunContext
        from repro.models.tensor_parallel import TensorParallelConfig

        memo.clear_caches()

        def build(ctx=None):
            device = get_backend("gaudi2")
            tp = TensorParallelConfig.for_device(device, 2)
            return LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, device, tp=tp),
                DecodeAttention.PAGED_OPT,
                max_decode_batch=8,
                ctx=ctx,
            )

        plain = build().run(dynamic_sonnet_requests(12, seed=1)).to_dict()
        ctx = RunContext.create(seed=1, device="gaudi2")
        observed = build(ctx=ctx).run(dynamic_sonnet_requests(12, seed=1)).to_dict()
        assert observed == plain


class TestObservabilityAllocationGuard:
    def test_unobserved_run_allocates_one_accumulator(self, monkeypatch):
        """The step loop must not build ActivityAccumulators (or any
        other observability state) when no context is bound."""
        import repro.serving.engine as engine_mod

        allocations = []

        class CountingAccumulator(engine_mod.ActivityAccumulator):
            def __init__(self, *args, **kwargs):
                allocations.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "ActivityAccumulator", CountingAccumulator)
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=8,
        )
        report = engine.run(fixed_length_requests(8, 100, 25))
        assert report.engine_steps > 10
        # Exactly one: the run-level aggregate accumulator.
        assert sum(allocations) == 1


class TestSortedWaitingQueue:
    def _scheduler(self, num_blocks=64):
        from repro.serving.kv_cache import BlockManager

        return ContinuousBatchingScheduler(
            BlockManager(num_blocks=num_blocks, block_size=128), max_decode_batch=4
        )

    def test_submit_keeps_arrival_order(self):
        scheduler = self._scheduler()
        arrivals = [5.0, 1.0, 3.0, 1.0, 4.0]
        requests = [
            Request(request_id=i, input_tokens=10, output_tokens=5, arrival_time=t)
            for i, t in enumerate(arrivals)
        ]
        for request in requests:
            scheduler.submit(request)
        assert [r.arrival_time for r in scheduler.waiting] == sorted(arrivals)
        # Equal arrivals stay in submission order (stable FIFO).
        ones = [r.request_id for r in scheduler.waiting if r.arrival_time == 1.0]
        assert ones == [1, 3]

    def test_insort_left_vs_right(self):
        queue = []
        a = Request(request_id=0, input_tokens=1, output_tokens=1, arrival_time=1.0)
        b = Request(request_id=1, input_tokens=1, output_tokens=1, arrival_time=1.0)
        c = Request(request_id=2, input_tokens=1, output_tokens=1, arrival_time=1.0)
        _insort_by_arrival(queue, a)
        _insort_by_arrival(queue, b)          # right: after equal arrivals
        _insort_by_arrival(queue, c, left=True)  # left: before equal arrivals
        assert [r.request_id for r in queue] == [2, 0, 1]

    def test_requeue_moves_to_new_arrival_slot(self):
        scheduler = self._scheduler()
        early = Request(request_id=0, input_tokens=10, output_tokens=5, arrival_time=0.0)
        late = Request(request_id=1, input_tokens=10, output_tokens=5, arrival_time=9.0)
        scheduler.submit(early)
        scheduler.submit(late)
        scheduler.requeue(early, at=5.0)
        assert [r.request_id for r in scheduler.waiting] == [0, 1]
        assert early.arrival_time == 5.0
        scheduler.requeue(early, at=20.0)
        assert [r.request_id for r in scheduler.waiting] == [1, 0]

    def test_mutation_count_tracks_running_changes(self):
        scheduler = self._scheduler()
        requests = fixed_length_requests(2, 100, 10)
        for request in requests:
            scheduler.submit(request)
        v0 = scheduler.mutation_count
        scheduler.step(0.0)  # admits both
        assert scheduler.mutation_count > v0
        v1 = scheduler.mutation_count
        scheduler.step(0.1)  # nothing admitted or retired
        assert scheduler.mutation_count == v1
        scheduler.preempt(scheduler.running[-1])
        assert scheduler.mutation_count > v1


class TestSweepSeeds:
    def test_deterministic_and_distinct(self):
        seeds_a = sweep_seeds(42, 8)
        seeds_b = sweep_seeds(42, 8)
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 8
        assert sweep_seeds(43, 8) != seeds_a

    def test_prefix_stable(self):
        # Adding sweep points must not reshuffle earlier points' seeds.
        assert sweep_seeds(7, 4) == sweep_seeds(7, 8)[:4]


class TestResolveWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_worker_count(None, 100) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_worker_count(None, 100) == 4

    def test_auto_caps_and_clamps(self):
        assert 1 <= resolve_worker_count("auto", 100) <= 8
        assert resolve_worker_count(6, 2) == 2
        assert resolve_worker_count(0, 0) == 1
