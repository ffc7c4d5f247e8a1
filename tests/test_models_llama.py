"""Llama-3.1 cost models (Figures 12, 13)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.backend import A100, GAUDI2, get_backend
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    DecodeAttention,
    DecodeBatchStats,
    LlamaConfig,
    LlamaCostModel,
)
from repro.models.tensor_parallel import TensorParallelConfig


class TestConfigs:
    def test_table3_values_8b(self):
        cfg = LLAMA_3_1_8B
        assert cfg.num_layers == 32
        assert cfg.q_heads == 32 and cfg.kv_heads == 8
        assert cfg.hidden_size == 4096 and cfg.intermediate_size == 14336
        assert cfg.vocab_size == 128256

    def test_table3_values_70b(self):
        cfg = LLAMA_3_1_70B
        assert cfg.num_layers == 80
        assert cfg.q_heads == 64 and cfg.kv_heads == 8
        assert cfg.hidden_size == 8192 and cfg.intermediate_size == 28672

    def test_parameter_counts_close_to_names(self):
        assert LLAMA_3_1_8B.num_parameters == pytest.approx(8e9, rel=0.08)
        assert LLAMA_3_1_70B.num_parameters == pytest.approx(70e9, rel=0.08)

    def test_head_dim(self):
        assert LLAMA_3_1_8B.head_dim == 128
        assert LLAMA_3_1_70B.head_dim == 128

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LlamaConfig("bad", 0, 128, 512, 4, 2, 1000)


class TestPhases:
    def test_prefill_scales_with_tokens(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        short = model.prefill(1, 128).time
        long = model.prefill(1, 1024).time
        assert long > 4 * short

    def test_decode_step_memory_bound_scaling(self, gaudi):
        """Decode is weights-bound: batch barely changes step time."""
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        b1 = model.decode_step(1, 256).time
        b16 = model.decode_step(16, 256).time
        assert b16 < 2 * b1

    def test_decode_step_grows_with_context(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        assert model.decode_step(32, 4096).time > model.decode_step(32, 256).time

    def test_per_request_context_lengths(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        mixed = model.decode_step(4, [100, 200, 300, 400], DecodeAttention.PAGED_OPT)
        uniform = model.decode_step(4, 250, DecodeAttention.PAGED_OPT)
        assert mixed.time == pytest.approx(uniform.time, rel=0.1)

    def test_static_attention_pads_to_longest(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        lens = [8192] + [128] * 63
        skewed = model.decode_step(64, lens, DecodeAttention.STATIC)
        mean_ctx = sum(lens) // 64
        uniform = model.decode_step(64, [mean_ctx] * 64, DecodeAttention.STATIC)
        # Same total KV, but the static bucket pads everyone to 8192,
        # so the padded step reads ~32x the KV bytes.
        assert skewed.time > 1.3 * uniform.time

    def test_invalid_inputs(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        with pytest.raises(ValueError):
            model.prefill(0, 128)
        with pytest.raises(ValueError):
            model.decode_step(2, [100])
        with pytest.raises(ValueError):
            model.decode_step(1, 0)


class TestUniformBatch:
    """A scalar ``context_len`` is the list ``[context_len] * batch``."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 300),
        context_len=st.integers(1, 20_000),
        block_size=st.sampled_from((1, 16, 128, 256)),
    )
    def test_uniform_stats_equal_list_stats(self, batch, context_len, block_size):
        assert DecodeBatchStats.uniform(batch, context_len, block_size) == (
            DecodeBatchStats.from_context_lens([context_len] * batch, block_size)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        backend=st.sampled_from((GAUDI2, A100)),
        batch=st.integers(1, 64),
        context_len=st.integers(1, 8192),
        attention=st.sampled_from(list(DecodeAttention)),
    )
    def test_scalar_decode_step_is_bit_identical(
        self, backend, batch, context_len, attention
    ):
        model = LlamaCostModel(LLAMA_3_1_8B, get_backend(backend))
        scalar = model.decode_step(batch, context_len, attention)
        listed = model.decode_step(batch, [context_len] * batch, attention)
        assert scalar.time == listed.time
        assert vars(scalar.activity) == vars(listed.activity)

    def test_uniform_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError, match="context lengths must be positive"):
            DecodeBatchStats.uniform(4, 0)
        with pytest.raises(ValueError, match="at least one"):
            DecodeBatchStats.uniform(0, 128)


class TestGenerate:
    def test_headline_speedup_band(self, gaudi, a100):
        """Paper: ~1.47x average single-device speedup for the 8B."""
        speedups = []
        for batch, out in [(16, 100), (64, 25), (64, 400)]:
            eg = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(batch, 100, out)
            ea = LlamaCostModel(LLAMA_3_1_8B, a100).generate(batch, 100, out)
            speedups.append(ea.total_time / eg.total_time)
        assert 1.2 < sum(speedups) / len(speedups) < 1.7

    def test_energy_efficiency_band(self, gaudi, a100):
        """Paper: ~48 % higher single-device energy efficiency."""
        eg = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(32, 100, 100)
        ea = LlamaCostModel(LLAMA_3_1_8B, a100).generate(32, 100, 100)
        assert 1.2 < ea.energy_joules / eg.energy_joules < 1.8

    def test_tokens_per_second_positive(self, gaudi):
        estimate = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(8, 100, 50)
        assert estimate.tokens_per_second > 0
        assert estimate.total_tokens == 8 * 50

    def test_prefill_dominates_short_outputs(self, gaudi):
        estimate = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(32, 2048, 4)
        assert estimate.prefill_time > estimate.decode_time

    def test_decode_dominates_long_outputs(self, gaudi):
        estimate = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(32, 100, 400)
        assert estimate.decode_time > estimate.prefill_time


class TestTensorParallel:
    def test_tp_shards_must_divide(self, gaudi):
        with pytest.raises(ValueError):
            LlamaCostModel(LLAMA_3_1_8B, gaudi, TensorParallelConfig(degree=3))

    def test_tp_speeds_up_decode(self, gaudi):
        single = LlamaCostModel(LLAMA_3_1_70B, gaudi)
        tp8 = LlamaCostModel(
            LLAMA_3_1_70B, gaudi, TensorParallelConfig.for_device(gaudi, 8)
        )
        assert tp8.decode_step(32, 512).time < single.decode_step(32, 512).time

    def test_gaudi_speedup_grows_with_devices(self, gaudi, a100):
        """Figure 12(a): Gaudi's edge increases with TP degree."""
        def speedup(tp):
            mg = LlamaCostModel(LLAMA_3_1_70B, gaudi,
                                TensorParallelConfig.for_device(gaudi, tp))
            ma = LlamaCostModel(LLAMA_3_1_70B, a100,
                                TensorParallelConfig.for_device(a100, tp))
            return (ma.generate(32, 100, 100).total_time
                    / mg.generate(32, 100, 100).total_time)

        assert speedup(8) > speedup(2)

    def test_multi_device_power_ratio(self, gaudi, a100):
        """Paper: Gaudi draws ~88 % of A100's power at TP8."""
        mg = LlamaCostModel(LLAMA_3_1_70B, gaudi,
                            TensorParallelConfig.for_device(gaudi, 8))
        ma = LlamaCostModel(LLAMA_3_1_70B, a100,
                            TensorParallelConfig.for_device(a100, 8))
        eg, ea = mg.generate(32, 100, 100), ma.generate(32, 100, 100)
        assert eg.average_power / ea.average_power == pytest.approx(0.88, abs=0.1)


class TestCapacity:
    def test_kv_capacity_positive_for_8b(self, gaudi):
        model = LlamaCostModel(LLAMA_3_1_8B, gaudi)
        assert model.max_kv_tokens() > 100_000

    def test_70b_needs_sharding_on_a100(self, a100):
        single = LlamaCostModel(LLAMA_3_1_70B, a100)
        assert single.max_kv_tokens() == 0  # weights exceed one HBM
        tp4 = LlamaCostModel(LLAMA_3_1_70B, a100,
                             TensorParallelConfig.for_device(a100, 4))
        assert tp4.max_kv_tokens() > 0


class TestServingKnobs:
    """The Section 3.5 methodology knobs: HPU/CUDA Graphs and
    optimum-habana static-shape bucketing."""

    def test_graphs_beat_eager(self, gaudi):
        captured = LlamaCostModel(LLAMA_3_1_8B, gaudi, use_graphs=True)
        eager = LlamaCostModel(LLAMA_3_1_8B, gaudi, use_graphs=False)
        assert captured.decode_step(8, 256).time < eager.decode_step(8, 256).time

    def test_bucketing_pads_decode(self, gaudi):
        exact = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1)
        bucketed = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1024)
        assert bucketed.decode_step(16, 1100).time > exact.decode_step(16, 1100).time

    def test_bucketing_noop_at_boundary(self, gaudi):
        exact = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1)
        bucketed = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1024)
        assert bucketed.decode_step(16, 1024).time == pytest.approx(
            exact.decode_step(16, 1024).time
        )

    def test_invalid_bucket(self, gaudi):
        with pytest.raises(ValueError):
            LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=0)

    def test_paged_attention_ignores_bucketing(self, gaudi):
        exact = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1)
        bucketed = LlamaCostModel(LLAMA_3_1_8B, gaudi, static_bucket=1024)
        assert bucketed.decode_step(
            16, 1100, DecodeAttention.PAGED_OPT
        ).time == pytest.approx(exact.decode_step(16, 1100, DecodeAttention.PAGED_OPT).time)
