"""Failure injection: the stack must fail loudly, never hang or corrupt."""

import pytest

from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    KvCacheError,
    LlmServingEngine,
    fixed_length_requests,
)
from repro.serving.capacity import compare_capacity, paged_capacity, static_capacity
from repro.serving.dataset import dynamic_sonnet_requests
from repro.serving.kv_cache import BlockManager


class TestOversizedPrompts:
    def test_prompt_larger_than_pool_rejected_at_submit(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            max_decode_batch=4,
            num_kv_blocks=4,
        )
        with pytest.raises(KvCacheError, match="never be scheduled"):
            engine.run(fixed_length_requests(1, input_len=10_000, output_len=5))

    def test_fitting_prompt_on_tiny_pool_completes(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            max_decode_batch=2,
            num_kv_blocks=8,
        )
        report = engine.run(fixed_length_requests(2, input_len=256, output_len=16))
        assert report.num_requests == 2

    def test_mixed_fit_and_unfit_fails_fast(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            max_decode_batch=2,
            num_kv_blocks=4,
        )
        requests = fixed_length_requests(1, input_len=128, output_len=4)
        requests += fixed_length_requests(1, input_len=9_000, output_len=4)
        requests[1].request_id = 1
        with pytest.raises(KvCacheError):
            engine.run(requests)


class TestPoolPressure:
    def test_heavy_preemption_still_terminates(self, gaudi):
        engine = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=6,
            num_kv_blocks=20,
        )
        requests = fixed_length_requests(6, input_len=200, output_len=300)
        report = engine.run(requests)
        assert report.preemptions > 0
        assert all(r.done for r in requests)
        assert engine.allocated_kv_blocks == 0

    def test_block_manager_rejects_negative_pool(self):
        with pytest.raises(ValueError):
            BlockManager(num_blocks=-1, block_size=128)


class TestCapacityAnalysis:
    def test_paged_beats_static_on_short_requests(self, gaudi):
        """The Section 4.2 motivation: fragmentation caps static batch."""
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        requests = dynamic_sonnet_requests(4096, seed=1)
        report = compare_capacity(LLAMA_3_1_8B, model, requests, max_model_len=4096)
        assert report.paged_capacity > 2 * report.static_capacity
        assert report.capacity_gain > 2.0

    def test_gaudi_hbm_holds_more_paged_requests(self, gaudi, a100):
        """On both devices' HBM budgets paged KV fits several times the
        static slots, and Gaudi-2's 96 GB holds more than the A100's 80 GB."""
        requests = dynamic_sonnet_requests(8192, seed=11)
        gaudi_report, a100_report = (
            compare_capacity(LLAMA_3_1_8B, LlamaCostModel(LLAMA_3_1_8B, device), requests,
                             max_model_len=4096)
            for device in (gaudi, a100)
        )
        assert gaudi_report.capacity_gain > 2.0
        assert a100_report.capacity_gain > 2.0
        assert gaudi_report.paged_capacity > a100_report.paged_capacity

    def test_static_capacity_arithmetic(self):
        assert static_capacity(10_000, 4096) == 2
        with pytest.raises(ValueError):
            static_capacity(10_000, 0)

    def test_paged_capacity_admission_order(self):
        # pool of 4 blocks of 128: requests of 1, 2, 2 blocks -> 2 admitted
        assert paged_capacity(4 * 128, [100, 200, 200]) == 2

    def test_paged_capacity_waste_bounded(self):
        # 1-token requests still take a whole block each.
        assert paged_capacity(4 * 128, [1, 1, 1, 1, 1]) == 4

    def test_empty_requests_rejected(self):
        with pytest.raises(ValueError):
            paged_capacity(1024, [])
