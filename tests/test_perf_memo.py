"""Golden-equivalence and bookkeeping tests for the memoization layer.

The fast path is only admissible if it is invisible: cached and
cold-cache runs must produce byte-identical reports, the incremental
decode statistics must match a from-scratch rebuild, and unobserved
serving runs must not allocate observability state per step.
"""

import dataclasses

import pytest

from repro.audit import ConfigError, MemoEquivalenceError
from repro.audit.auditor import audit_scope
from repro.core import memo
from repro.core.memo import CostCache
from repro.core.parallel import resolve_worker_count
from repro.hw.backend import get_backend
from repro.hw.device import Device, Gaudi2Device
from repro.hw.spec import DType
from repro.models.llama import (
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaCostModel,
    PhaseEstimate,
)
from repro.serving import (
    LlmServingEngine,
    dynamic_sonnet_requests,
    fixed_length_requests,
)
from repro.serving.loadgen import sweep_seeds
from repro.serving.request import Request
from repro.serving.engine_core import EngineCore


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


@pytest.fixture
def audit_off():
    """Pin auditing off: under ``REPRO_AUDIT=sample|strict`` a seeded
    fraction of cache hits is reported as a miss (the memo
    re-verification that ``tests/test_audit.py`` covers), which would
    break exact hit/miss bookkeeping."""
    with audit_scope("off"):
        yield


@pytest.fixture
def memo_on():
    """Pin memoization on: these tests exercise the caches themselves,
    which ``REPRO_NO_MEMO=1`` bypasses."""
    previous = memo.memoization_enabled()
    memo.set_enabled(True)
    try:
        yield
    finally:
        memo.set_enabled(previous)


@pytest.mark.usefixtures("audit_off", "memo_on")
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


@pytest.mark.usefixtures("audit_off", "memo_on")
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


class TestPrefillPricer:
    """A cold prompt length prices through the compiled prefill pricer:
    its GEMM rows never build ``Device.gemm`` results, and pricers and
    rows live in registered caches, so a cold run starts cold."""

    @pytest.fixture(autouse=True)
    def _memo_on(self):
        # The pricer is the memo-on path; REPRO_NO_MEMO=1 runs the
        # reference instead, which these tests do not cover.
        previous = memo.memoization_enabled()
        memo.set_enabled(True)
        memo.clear_caches()
        yield
        # Leave no injected pricer or poisoned entry to later tests.
        memo.clear_caches()
        memo.set_enabled(previous)

    @pytest.mark.parametrize("backend", ("gaudi2", "a100", "h100"))
    def test_cold_lengths_price_gemms_only_for_lm_head(self, backend, monkeypatch):
        calls = []
        gemm = Device.gemm

        def counted(self, m, k, n, dtype=DType.BF16, batch=1):
            calls.append((m, k, n))
            return gemm(self, m, k, n, dtype, batch)

        monkeypatch.setattr(Device, "gemm", counted)
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend(backend))
        for seq_len in range(1, 4001, 20):
            model.prefill(1, seq_len)
        for batch in (2, 4):
            model.prefill(batch, 100)
        lm_head = (LLAMA_3_1_8B.hidden_size, LLAMA_3_1_8B.vocab_size)
        assert calls == [(batch,) + lm_head for batch in (1, 2, 4)]

    def test_overridden_gemm_keeps_generic_row(self):
        class SlowGemm(Gaudi2Device):
            def _gemm_uncached(self, m, k, n, dtype, batch):
                result = super()._gemm_uncached(m, k, n, dtype, batch)
                return dataclasses.replace(result, time=2.0 * result.time)

        device = SlowGemm()
        row = device.gemm_row(4096, 14336)
        assert row(300) == (
            device.gemm(300, 4096, 14336).time,
            device.gemm(300, 4096, 14336).active_mac_fraction,
        )

    def test_strict_audit_flags_a_wrong_pricer(self):
        """A sampled prefill hit recomputes through the from-scratch
        reference, not the pricer that filled the entry, so a pricer
        that drifted from the reference is caught."""
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
        good = model.prefill_pricer(1)

        def wrong(seq_len, tp):
            phase = good(seq_len, tp)
            return PhaseEstimate(time=phase.time * 1.01, activity=phase.activity)

        model._pricer_cache.put(1, wrong)
        with audit_scope("strict", sample_fraction=1.0):
            model.prefill(1, 100)
            with pytest.raises(MemoEquivalenceError):
                model.prefill(1, 100)

    def test_strict_audit_passes_the_real_pricer(self):
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
        with audit_scope("strict", sample_fraction=1.0) as auditor:
            first = model.prefill(1, 100)
            assert model.prefill(1, 100) == first
            assert auditor.memo_verified > 0
            assert auditor.total_violations == 0

    @pytest.mark.parametrize("fabric", ("healthy", "slow-link", "one-alive", "tp1"))
    def test_collectives_are_the_priced_allreduces(self, fabric, monkeypatch):
        """``collectives(tokens)`` names the AllReduces the references
        price: the ``(seconds, bytes)`` each passes to
        ``allreduce_time``, or ``()`` when no exchange happens (TP 1,
        or one TP-8 device left alive)."""
        from repro.comm import FabricHealth
        from repro.hw.backend import GAUDI2, get_backend
        from repro.models.tensor_parallel import TensorParallelConfig

        health = FabricHealth()
        if fabric == "tp1":
            tp = TensorParallelConfig(degree=1)
        else:
            library = get_backend(GAUDI2).collective_library().degraded(health)
            tp = TensorParallelConfig(degree=8, library=library)
        if fabric == "slow-link":
            health.set_link_factor(0, 1, 0.25)
        elif fabric == "one-alive":
            for device in range(1, 8):
                health.fail_device(device)
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"), tp=tp)
        passed = []
        allreduce_time = tp.allreduce_time

        def recorded(size_bytes):
            time = allreduce_time(size_bytes)
            passed.append((time, size_bytes))
            return time

        monkeypatch.setattr(tp, "allreduce_time", recorded)
        for price, tokens in (
            (lambda: model._prefill_uncached(2, 300), 600),
            (lambda: model._decode_terms_uncached(24), 24),
        ):
            passed.clear()
            price()
            priced = tuple(passed)
            assert len(priced) == 2
            if fabric in ("one-alive", "tp1"):
                assert {time for time, _ in priced} == {0.0}
                priced = ()
            assert model.collectives(tokens) == priced

    def test_observed_prefill_fills_the_phase_cache(self):
        from repro.api import RunContext
        from repro.models.tensor_parallel import TensorParallelConfig

        device = get_backend("gaudi2")
        model = LlamaCostModel(
            LLAMA_3_1_8B, device, tp=TensorParallelConfig.for_device(device, 8)
        )
        ctx = RunContext.create()
        requests = dynamic_sonnet_requests(8, seed=3)
        LlmServingEngine(model, DecodeAttention.PAGED_OPT, ctx=ctx).run(requests)
        lengths = {r.input_tokens for r in requests}
        assert len(model._prefill_cache) == len(lengths)
        assert len(model._pricer_cache) == 1
        assert ctx.metrics.counter("comm.allreduce.calls").value > 0

    def test_pricers_and_rows_live_in_registered_caches(self):
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
        model.prefill(1, 100)
        stats = memo.cache_stats()
        assert stats[f"llama.prefill_pricer[Gaudi-2/{LLAMA_3_1_8B.name}]"]["entries"] == 1
        assert stats["device.gemm_row[Gaudi-2]"]["entries"] == 4
        assert "device.gemm_row[Gaudi-2]" in memo.render_stats()
        memo.clear_caches()
        assert all(entry["entries"] == 0 for entry in memo.cache_stats().values())
        pricer = model.prefill_pricer(1)
        assert model.prefill_pricer(1) is pricer
        with memo.disabled():
            assert model.prefill_pricer(1) is not pricer


@pytest.mark.usefixtures("memo_on")
class TestDecodePieceMemo:
    """Every paged pricer's piece memo is one registered cache, and the
    audit re-verifies its hits."""

    @staticmethod
    def _pieces(price):
        import inspect

        return inspect.getclosurevars(price).nonlocals["pieces"]

    def test_listed_as_one_cache(self, audit_off):
        memo.clear_caches()
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
            DecodeAttention.PAGED_OPT, max_decode_batch=16,
        )
        engine.run(dynamic_sonnet_requests(48, seed=3))
        entry = memo.cache_stats()["llama.decode_piece"]
        assert entry["hits"] > 0 and entry["misses"] > 0 and entry["entries"] > 0
        assert "llama.decode_piece" in memo.render_stats()
        memo.clear_caches()
        entry = memo.cache_stats()["llama.decode_piece"]
        assert (entry["hits"], entry["misses"], entry["entries"]) == (0, 0, 0)

    def test_strict_audit_catches_a_corrupted_piece(self):
        memo.clear_caches()
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2"))
        with audit_scope("strict", sample_fraction=1.0) as auditor:
            price = model.decode_stepper(4, DecodeAttention.PAGED_OPT)
            piece = price(2000, 16, 500)
            pieces = self._pieces(price)
            assert pieces[16] == piece  # a read-bound piece is kept
            assert price(2001, 16, 501) == piece
            assert auditor.total_violations == 0
            pieces[16] = (piece[0] * 1.01,) + piece[1:]
            with pytest.raises(MemoEquivalenceError, match="llama.decode_piece"):
                price(2002, 16, 502)

    def test_audited_serve_matches_unaudited(self):
        def serve():
            memo.clear_caches()
            requests = dynamic_sonnet_requests(32, seed=5)
            report = LlmServingEngine(
                LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
                DecodeAttention.PAGED_OPT, max_decode_batch=16,
            ).run(requests)
            return report.to_json()

        with audit_scope("off"):
            plain = serve()
        with audit_scope("strict", sample_fraction=1.0) as auditor:
            audited = serve()
            verified = auditor.memo_verified
            assert auditor.total_violations == 0
        assert audited == plain
        assert verified > 0


class TestFaultStateMemo:
    """Degraded fabrics memoize under their fault-state key, so fleet
    and chaos runs price through the cached path; it must stay
    invisible in their results."""

    def test_fleet_fabric_chaos_memo_on_off(self):
        from repro.cluster import FleetConfig, NodeFaultPlan, run_fleet

        config = FleetConfig(
            nodes=(("gaudi2", 2), ("a100", 1)),
            max_decode_batch=8,
            num_requests=40,
            rate=10.0,
            seed=5,
            plan=NodeFaultPlan.from_spec(
                "fabric:gaudi2-0@t=0.5,factor=0.25,until=2.5;"
                "fabric:a100-0@t=1,factor=0.5,until=2;"
                "crash:gaudi2-1@t=1,recover=3;"
                "brownout:a100-0@t=0.5,factor=0.5,until=2"
            ),
        )
        memo.clear_caches()
        cached = run_fleet(config)
        with memo.disabled():
            cold = run_fleet(config)
        assert cached.to_payload() == cold.to_payload()
        assert sum("fabric_degrade" in line for line in cached.fault_log) == 2
        assert cached.node_crashes == 1

    def test_chaos_fabric_faults_memo_on_off(self):
        from repro.faults import ChaosConfig, FaultPlan, run_chaos

        plan = FaultPlan.from_specs(
            seed=0,
            fail_device=["3@t=0.5,recover=2"],
            degrade_link=["0-1@t=0.3,factor=0.3,until=1.5"],
            flap_link=["2-5@t=0.2,period=0.25,cycles=3"],
        )
        config = ChaosConfig(
            tp=8, seed=0, num_requests=48, max_decode_batch=16, plan=plan
        )
        memo.clear_caches()
        cached = run_chaos(config=config)
        with memo.disabled():
            cold = run_chaos(config=config)
        assert cached == cold
        assert cached.device_failures == 1 and cached.device_recoveries == 1

    def test_fleet_node_builds_decode_stepper(self):
        """A fleet node prices through a degraded fabric view; it must
        stay on the memoized stepper path, healthy or degraded, and
        match the from-scratch assembly in both states."""
        from repro.cluster import Node, NodeClass

        memo.clear_caches()
        node = Node("gaudi2-0", NodeClass(name="gaudi2", device="gaudi2"))
        model, attention = node.engine.model, node.engine.attention
        stats = DecodeBatchStats.from_context_lens([100, 200, 300, 400])
        steps = []
        for degrade in (False, True):
            if degrade:
                node.degrade_fabric(0.25)
            piece = model.decode_stepper(stats.batch, attention)(
                stats.total_context, stats.total_blocks, stats.max_context
            )
            time = piece[0]
            with memo.disabled():
                cold = model.decode_step_stats(stats, attention)
            assert time == cold.time
            assert piece[1:6] == _activity_tuple(cold.activity)
            steps.append(time)
        assert steps[1] > steps[0]


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
    """The engine core's wait queue stays ``(tier, arrival)``-sorted."""

    def _queued(self, core):
        return [core.objs[slot].request_id for slot in core.waiting_slots()]

    def test_submit_keeps_arrival_order(self):
        core = EngineCore(num_blocks=64, block_size=128)
        arrivals = [5.0, 1.0, 3.0, 1.0, 4.0]
        for i, t in enumerate(arrivals):
            core.acquire(
                Request(request_id=i, input_tokens=10, output_tokens=5, arrival_time=t)
            )
        assert [core.arrival[slot] for slot in core.waiting_slots()] == sorted(arrivals)
        # Equal arrivals stay in submission order (stable FIFO).
        assert self._queued(core) == [1, 3, 2, 4, 0]

    def test_insort_left_vs_right(self):
        core = EngineCore(num_blocks=64, block_size=128)
        a, b, c = (
            Request(request_id=i, input_tokens=1, output_tokens=1, arrival_time=1.0)
            for i in range(3)
        )
        core.acquire(a)
        core.acquire(b)  # right: after equal arrivals
        slot = core.acquire(c)
        core.wait_q.remove(slot)
        core.insort_waiting(slot, left=True)  # left: before equal arrivals
        assert self._queued(core) == [2, 0, 1]

    def test_requeue_moves_to_new_arrival_slot(self, gaudi):
        """A TTFT-deadline retry re-arrives after its backoff, behind a
        request that arrived in between."""
        from repro.serving import ResiliencePolicy
        from repro.serving.request import RetryPolicy

        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi), DecodeAttention.PAGED_OPT,
            max_decode_batch=1,
            policy=ResiliencePolicy(
                deadline=0.05, retry=RetryPolicy(max_retries=1, backoff_base=1.0)
            ),
        )
        busy = Request(request_id=0, input_tokens=10, output_tokens=400)
        early = Request(request_id=1, input_tokens=10, output_tokens=5, arrival_time=0.0)
        late = Request(request_id=2, input_tokens=10, output_tokens=5, arrival_time=0.5)
        engine.begin([busy, early, late])
        engine.advance(0.1)
        assert early.retries == 1 and early.arrival_time > late.arrival_time
        assert self._queued(engine._core) == [2, 1]


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

    def test_accepts_integer_strings_and_auto(self):
        assert resolve_worker_count(" 3 ", 100) == 3
        assert resolve_worker_count("AUTO", 100) == resolve_worker_count(0, 100)
        assert resolve_worker_count("0", 100) == resolve_worker_count("auto", 100)

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1", "", "²", -1, 1.5])
    def test_bad_value_names_the_flag(self, value):
        with pytest.raises(ConfigError, match="^--workers must be a non-negative integer"):
            resolve_worker_count(value, 100)

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1", ""])
    def test_bad_env_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ConfigError, match="^REPRO_WORKERS must be"):
            resolve_worker_count(None, 100)
