"""End-to-end LLM serving engine (Figure 17(d, e))."""

import pytest

from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    LlmServingEngine,
    RecSysServer,
    dynamic_sonnet_requests,
    fixed_length_requests,
)
from repro.models.dlrm import DlrmCostModel, RM2_CONFIG


def _engine(device, attention=DecodeAttention.PAGED_OPT, max_batch=16):
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, device), attention, max_decode_batch=max_batch
    )


class TestServingRun:
    def test_all_requests_complete(self, gaudi):
        requests = fixed_length_requests(8, 100, 10)
        report = _engine(gaudi).run(requests)
        assert report.num_requests == 8
        assert report.total_output_tokens == 80
        assert all(r.done for r in requests)

    def test_metrics_positive(self, gaudi):
        report = _engine(gaudi).run(fixed_length_requests(4, 100, 10))
        assert report.total_time > 0
        assert report.mean_ttft > 0
        assert report.mean_tpot > 0
        assert report.throughput_tokens_per_s > 0
        assert report.average_power > 0
        assert report.energy_per_token > 0

    def test_empty_request_list_yields_empty_report(self, gaudi):
        report = _engine(gaudi).run([])
        assert report.num_requests == 0
        assert report.total_time == 0.0
        assert report.completion_rate == 0.0
        assert "no finished requests" in report.render()

    def test_later_arrivals_wait(self, gaudi):
        requests = fixed_length_requests(2, 100, 5)
        requests[1].arrival_time = 100.0
        report = _engine(gaudi).run(requests)
        assert report.total_time > 100.0
        assert requests[1].ttft < requests[1].first_token_time

    def test_deterministic(self, gaudi):
        r1 = _engine(gaudi).run(dynamic_sonnet_requests(12, seed=5))
        r2 = _engine(gaudi).run(dynamic_sonnet_requests(12, seed=5))
        assert r1.total_time == pytest.approx(r2.total_time)


class TestBatchSizeSweep:
    """Figure 17(d, e) shapes."""

    def test_throughput_improves_with_batch(self, gaudi):
        small = _engine(gaudi, max_batch=2).run(dynamic_sonnet_requests(32, seed=2))
        large = _engine(gaudi, max_batch=32).run(dynamic_sonnet_requests(32, seed=2))
        assert large.throughput_tokens_per_s > 1.5 * small.throughput_tokens_per_s

    def test_tpot_grows_with_batch(self, gaudi):
        small = _engine(gaudi, max_batch=2).run(dynamic_sonnet_requests(32, seed=2))
        large = _engine(gaudi, max_batch=32).run(dynamic_sonnet_requests(32, seed=2))
        assert large.mean_tpot > small.mean_tpot

    def test_opt_attention_beats_base_end_to_end(self, gaudi):
        opt = _engine(gaudi, DecodeAttention.PAGED_OPT).run(
            dynamic_sonnet_requests(16, seed=3)
        )
        base = _engine(gaudi, DecodeAttention.PAGED_BASE).run(
            dynamic_sonnet_requests(16, seed=3)
        )
        assert opt.throughput_tokens_per_s > base.throughput_tokens_per_s

    def test_gaudi_competitive_with_a100_end_to_end(self, gaudi, a100):
        """Paper: vLLM_opt Gaudi-2 shows comparable e2e throughput."""
        rg = _engine(gaudi, DecodeAttention.PAGED_OPT).run(
            dynamic_sonnet_requests(24, seed=4)
        )
        ra = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, a100), DecodeAttention.PAGED_CUDA,
            max_decode_batch=16,
        ).run(dynamic_sonnet_requests(24, seed=4))
        ratio = rg.throughput_tokens_per_s / ra.throughput_tokens_per_s
        assert 0.8 < ratio < 1.6


class TestPreemption:
    def test_preempts_when_kv_pool_tiny(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=8,
            num_kv_blocks=24,   # deliberately tiny pool
        )
        requests = fixed_length_requests(8, 256, 200)
        report = engine.run(requests)
        assert report.preemptions > 0
        assert all(r.done for r in requests)

    def test_preemption_recompute_lifecycle(self, gaudi):
        """A preempted request is re-admitted, re-prefilled, and its
        recorded TTFT reflects the restart."""
        # 5 blocks of 128 tokens: two 256-token prefills fit (2 blocks
        # each), but as soon as both grow past a block boundary the pool
        # is exhausted and the younger request must be preempted.
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=2,
            num_kv_blocks=5,
        )
        requests = fixed_length_requests(2, 256, 200)
        survivor, victim = requests
        report = engine.run(requests)
        # the younger request thrashes in and out of the pool until the
        # survivor finishes and frees its blocks -- every cycle is a full
        # recompute restart, and the engine counts each one.
        assert victim.restarts >= 1
        assert survivor.restarts == 0
        assert report.preemptions == victim.restarts
        assert all(r.done for r in requests)
        assert all(r.generated == 200 for r in requests)
        # the victim's first token only lands after its last re-prefill
        assert victim.ttft > survivor.ttft


class TestKvPoolSizing:
    def test_weights_over_device_memory_is_a_config_error(self, gaudi):
        """A model whose weights leave no room for one KV block is a
        configuration error naming the model, device and TP degree, not
        a one-block pool that fails on the first admission."""
        from repro.audit import ConfigError
        from repro.models.llama import LLAMA_3_1_70B

        model = LlamaCostModel(LLAMA_3_1_70B, gaudi)
        with pytest.raises(ConfigError, match="Llama-3.1-70B-Instruct on Gaudi-2 at TP 1"):
            LlmServingEngine(model, DecodeAttention.PAGED_OPT)
        # An explicit pool size is the caller's choice and stays honoured.
        engine = LlmServingEngine(model, DecodeAttention.PAGED_OPT, num_kv_blocks=64)
        assert engine.num_kv_blocks == 64


class TestRecSysServer:
    def test_report_fields(self, gaudi):
        server = RecSysServer(DlrmCostModel(RM2_CONFIG, gaudi))
        report = server.serve_batch(2048)
        assert report.batch == 2048
        assert report.requests_per_s == pytest.approx(2048 / report.latency)
        assert report.energy_per_request > 0
