"""Training cost model (future-work extension)."""

import pytest

from repro.hw.backend import get_backend
from repro.models.llama import LLAMA_3_1_8B, LLAMA_3_1_70B
from repro.models.tensor_parallel import TensorParallelConfig
from repro.models.training import LlamaTrainingCostModel


class TestStepStructure:
    def test_backward_costs_twice_forward(self, gaudi):
        model = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=8)
        step = model.step(global_batch=64, seq_len=2048)
        assert step.backward_time == pytest.approx(2 * step.forward_time)

    def test_components_positive(self, gaudi):
        step = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=8).step(64, 2048)
        assert step.optimizer_time > 0
        assert step.gradient_allreduce_time > 0
        assert step.step_time == pytest.approx(
            step.forward_time + step.backward_time + step.optimizer_time
            + step.gradient_allreduce_time
        )

    def test_single_device_skips_allreduce(self, gaudi):
        step = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=1).step(8, 2048)
        assert step.gradient_allreduce_time == 0.0

    def test_mfu_plausible(self, gaudi, a100):
        for device in (gaudi, a100):
            model = LlamaTrainingCostModel(LLAMA_3_1_8B, device, data_parallel=8)
            step = model.step(global_batch=128, seq_len=4096)
            assert 0.4 < step.model_flops_utilization < 1.0

    def test_invalid_args(self, gaudi):
        with pytest.raises(ValueError):
            LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=0)
        model = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=8)
        with pytest.raises(ValueError):
            model.step(global_batch=4, seq_len=2048)


class TestCrossPlatform:
    def test_gaudi_competitive_at_full_node(self, gaudi, a100):
        """The Section 5 claim under test: training at 8 devices, where
        the P2P mesh runs at full strength."""
        g = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=8).step(128, 4096)
        a = LlamaTrainingCostModel(LLAMA_3_1_8B, a100, data_parallel=8).step(128, 4096)
        speedup = a.step_time / g.step_time
        assert speedup > 1.0  # compute-bound: the 1.4x matrix peak shows

    def test_energy_per_token_comparison(self, gaudi, a100):
        g = LlamaTrainingCostModel(LLAMA_3_1_8B, gaudi, data_parallel=8).step(128, 4096)
        a = LlamaTrainingCostModel(LLAMA_3_1_8B, a100, data_parallel=8).step(128, 4096)
        assert g.energy_per_token < a.energy_per_token

    def test_tp_reduces_step_time_for_70b(self, gaudi):
        tp8 = LlamaTrainingCostModel(
            LLAMA_3_1_70B, gaudi, data_parallel=1,
            tp=TensorParallelConfig.for_device(gaudi, 8),
        ).step(16, 2048)
        tp2 = LlamaTrainingCostModel(
            LLAMA_3_1_70B, gaudi, data_parallel=1,
            tp=TensorParallelConfig.for_device(gaudi, 2),
        ).step(16, 2048)
        assert tp8.step_time < tp2.step_time

    def test_gaudi3_projection_trains_faster(self):
        g2 = LlamaTrainingCostModel(LLAMA_3_1_8B, get_backend("gaudi2"), 8).step(128, 4096)
        g3 = LlamaTrainingCostModel(LLAMA_3_1_8B, get_backend("gaudi3"), 8).step(128, 4096)
        assert g3.step_time < 0.5 * g2.step_time
