"""Failure injection: the stack must fail loudly, never hang or corrupt."""

import pytest

from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import (
    KvCacheError,
    LlmServingEngine,
    fixed_length_requests,
)


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

