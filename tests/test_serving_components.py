"""Requests, datasets, and continuous-batching admission."""

import numpy as np
import pytest

from repro.hw.backend import get_backend
from repro.models.llama import LLAMA_3_1_8B, DecodeAttention, LlamaCostModel
from repro.serving import LlmServingEngine
from repro.serving.dataset import dynamic_sonnet_requests, fixed_length_requests
from repro.serving.request import Request, RequestState


class TestRequest:
    def test_lifecycle_and_metrics(self):
        request = Request(request_id=0, input_tokens=10, output_tokens=3)
        request.state = RequestState.RUNNING
        request.record_token(1.0)
        request.record_token(2.0)
        request.record_token(4.0)
        assert request.state is RequestState.FINISHED
        assert request.ttft == 1.0
        assert request.tpot == pytest.approx((4.0 - 1.0) / 2)

    def test_single_token_tpot_zero(self):
        request = Request(0, 10, 1, arrival_time=0.5)
        request.state = RequestState.RUNNING
        request.record_token(1.5)
        assert request.ttft == 1.0
        assert request.tpot == 0.0

    def test_token_on_non_running_raises(self):
        request = Request(0, 10, 1)
        with pytest.raises(RuntimeError):
            request.record_token(1.0)

    def test_metrics_before_completion_raise(self):
        request = Request(0, 10, 2)
        with pytest.raises(RuntimeError):
            _ = request.ttft

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            Request(0, 0, 5)


class TestDatasets:
    def test_fixed_length(self):
        requests = fixed_length_requests(5, input_len=100, output_len=25)
        assert len(requests) == 5
        assert all(r.input_tokens == 100 and r.output_tokens == 25 for r in requests)

    def test_dynamic_sonnet_deterministic(self):
        a = dynamic_sonnet_requests(50, seed=3)
        b = dynamic_sonnet_requests(50, seed=3)
        assert [r.input_tokens for r in a] == [r.input_tokens for r in b]

    def test_dynamic_sonnet_variability(self):
        requests = dynamic_sonnet_requests(200, seed=1)
        inputs = np.array([r.input_tokens for r in requests])
        assert inputs.std() > 100          # wide spread
        assert inputs.min() >= 64
        assert inputs.max() <= 3072

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            dynamic_sonnet_requests(0)


class TestScheduler:
    """Admission at the engine's virtual scheduler step; ``advance(t)``
    runs the iterations that start by ``t``."""

    def _engine(self, max_batch=4, blocks=64):
        return LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=max_batch,
            num_kv_blocks=blocks,
        )

    def test_admits_up_to_max_batch(self):
        engine = self._engine(max_batch=2)
        requests = [Request(i, 128, 8) for i in range(4)]
        engine.begin(requests)
        engine.advance(0.0)
        assert [r.state for r in requests] == [RequestState.RUNNING] * 2 + [
            RequestState.WAITING
        ] * 2

    def test_admission_blocked_by_kv_capacity(self):
        engine = self._engine(max_batch=8, blocks=2)
        requests = [Request(0, 256, 1), Request(1, 128, 1)]  # 0 takes both blocks
        engine.begin(requests)
        engine.advance(0.0)
        assert [r.state for r in requests] == [
            RequestState.FINISHED, RequestState.WAITING
        ]

    def test_finished_requests_release_blocks(self):
        engine = self._engine(max_batch=1, blocks=1)
        first, second = Request(0, 128, 1), Request(1, 128, 1)
        report = engine.run([first, second])
        assert report.finished_requests == 2 and report.engine_steps == 2
        assert second.first_token_time > first.finish_time

    def test_respects_arrival_times(self):
        engine = self._engine()
        request = Request(0, 128, 4, arrival_time=5.0)
        engine.begin([request])
        engine.advance(4.9)
        assert request.state is RequestState.WAITING and engine.now == 0.0
        engine.advance(5.0)
        assert request.state is RequestState.RUNNING

    def test_submit_running_request_rejected(self):
        engine = self._engine()
        engine.begin(())
        request = Request(0, 128, 4)
        request.state = RequestState.RUNNING
        with pytest.raises(ValueError):
            engine.feed(request)

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            self._engine(max_batch=0)
