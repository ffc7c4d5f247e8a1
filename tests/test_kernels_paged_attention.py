"""PagedAttention implementations (Section 4.2, Figures 16, 17)."""

import math

import numpy as np
import pytest

from repro.kernels.paged_attention import (
    PagedAttentionConfig,
    a100_paged_attention,
    pipelined_duration,
    reference_paged_attention,
    vllm_base_paged_attention,
    vllm_opt_paged_attention,
)
from repro.kernels.softmax import softmax


class TestConfig:
    def test_uniform_builder(self):
        config = PagedAttentionConfig.uniform(4, 1024)
        assert config.batch == 4
        assert config.padding_fraction == 0.0

    def test_padding_fraction(self):
        config = PagedAttentionConfig(
            batch=2, seq_lens=[1024, 128], q_heads=32, kv_heads=8, head_dim=128,
            block_size=128,
        )
        # max blocks 8 -> table 16 entries; effectual 8 + 1 = 9.
        assert config.padded_blocks == 16
        assert config.effectual_blocks == 9
        assert config.padding_fraction == pytest.approx(7 / 16)

    def test_block_bytes(self):
        config = PagedAttentionConfig.uniform(1, 128)
        assert config.block_bytes == 2 * 8 * 128 * 128 * 2

    def test_mismatched_seq_lens_rejected(self):
        with pytest.raises(ValueError):
            PagedAttentionConfig(batch=2, seq_lens=[128], q_heads=8, kv_heads=8,
                                 head_dim=64)


class TestBaselineVsOptimized:
    def test_opt_beats_base_everywhere(self):
        for seq in (1024, 4096):
            for batch in (8, 32):
                config = PagedAttentionConfig.uniform(batch, seq)
                assert (
                    vllm_opt_paged_attention(config).time
                    < vllm_base_paged_attention(config).time
                )

    def test_mean_speedup_matches_paper_band(self):
        """Paper: 7.4x average at 0 % padding."""
        ratios = []
        for seq in (1024, 2048, 4096, 8192):
            for batch in (8, 16, 32, 64):
                config = PagedAttentionConfig.uniform(batch, seq)
                ratios.append(
                    vllm_base_paged_attention(config).time
                    / vllm_opt_paged_attention(config).time
                )
        mean = sum(ratios) / len(ratios)
        assert 4.0 < mean < 9.0

    def test_padding_amplifies_speedup(self):
        """Figure 17(b): redundant gathers scale the gap up to ~55x."""
        base_lens = [4096] * 32
        padded_lens = [4096] + [256] * 31
        uniform = PagedAttentionConfig(batch=32, seq_lens=base_lens,
                                       q_heads=32, kv_heads=8, head_dim=128)
        padded = PagedAttentionConfig(batch=32, seq_lens=padded_lens,
                                      q_heads=32, kv_heads=8, head_dim=128)
        r_uniform = (vllm_base_paged_attention(uniform).time
                     / vllm_opt_paged_attention(uniform).time)
        r_padded = (vllm_base_paged_attention(padded).time
                    / vllm_opt_paged_attention(padded).time)
        assert r_padded > 4 * r_uniform
        assert 20 < r_padded < 70

    def test_blocklist_gain_grows_with_padding(self):
        """Ablation: BlockList (opt) over BlockTable (base) at 0 %, ~50 %
        and ~90 % padding; padding amplifies the gap."""
        speedups = []
        for seq_lens in ([2048] * 16, [2048] + [1024] * 15, [2048] + [256] * 15):
            config = PagedAttentionConfig(batch=16, seq_lens=seq_lens,
                                          q_heads=32, kv_heads=8, head_dim=128)
            speedups.append(vllm_base_paged_attention(config).time
                            / vllm_opt_paged_attention(config).time)
        assert speedups == sorted(speedups)
        assert speedups[0] > 3.0

    def test_base_time_insensitive_to_padding(self):
        """The baseline gathers the padded table either way."""
        uniform = PagedAttentionConfig.uniform(8, 2048)
        padded = PagedAttentionConfig(batch=8, seq_lens=[2048] + [128] * 7,
                                      q_heads=32, kv_heads=8, head_dim=128)
        tu = vllm_base_paged_attention(uniform).time
        tp = vllm_base_paged_attention(padded).time
        assert tp == pytest.approx(tu, rel=0.05)

    def test_opt_is_pipelined_base_is_not(self):
        config = PagedAttentionConfig.uniform(8, 2048)
        assert vllm_opt_paged_attention(config).pipelined
        assert not vllm_base_paged_attention(config).pipelined


class TestPipelinedDuration:
    def test_pipelined_duration_formula(self):
        assert pipelined_duration(100e-6, 60e-6, slices=10, slice_overhead=0.0) == (
            pytest.approx(106e-6)
        )

    def test_pipelined_duration_beats_serial(self):
        assert pipelined_duration(100e-6, 60e-6) < 160e-6

    def test_invalid_slices_raise(self):
        with pytest.raises(ValueError):
            pipelined_duration(1.0, 1.0, slices=0)


class TestVsA100:
    def test_opt_at_roughly_half_of_a100(self):
        """Paper: vLLM_opt reaches ~45 % of the CUDA kernel."""
        ratios = []
        for seq in (2048, 4096):
            for batch in (16, 64):
                config = PagedAttentionConfig.uniform(batch, seq)
                ratios.append(
                    a100_paged_attention(config).time
                    / vllm_opt_paged_attention(config).time
                )
        mean = sum(ratios) / len(ratios)
        assert 0.35 < mean < 0.65

    def test_a100_single_pass_over_kv(self):
        config = PagedAttentionConfig.uniform(16, 4096)
        result = a100_paged_attention(config)
        # time is close to one KV read at the paged efficiency
        expected = config.kv_bytes / (2.0e12 * 0.80)
        assert result.time == pytest.approx(expected, rel=0.1)


class TestFunctional:
    def test_matches_dense_attention(self):
        rng = np.random.default_rng(0)
        batch, heads, dim, block, seq = 2, 3, 8, 4, 12
        nblocks = math.ceil(seq / block)
        query = rng.normal(size=(batch, heads, dim))
        kv_blocks = rng.normal(size=(batch * nblocks, 2, block, dim))
        block_table = np.arange(batch * nblocks).reshape(batch, nblocks)
        out = reference_paged_attention(query, kv_blocks, block_table,
                                        [seq] * batch, block)
        # dense reference
        for b in range(batch):
            keys = kv_blocks[block_table[b], 0].reshape(-1, dim)[:seq]
            values = kv_blocks[block_table[b], 1].reshape(-1, dim)[:seq]
            for h in range(heads):
                weights = softmax(keys @ query[b, h] / np.sqrt(dim))
                np.testing.assert_allclose(out[b, h], weights @ values, rtol=1e-9)

    def test_respects_seq_lens(self):
        rng = np.random.default_rng(1)
        query = rng.normal(size=(1, 1, 4))
        kv_blocks = rng.normal(size=(4, 2, 4, 4))
        table = np.array([[0, 1, 2, 3]])
        short = reference_paged_attention(query, kv_blocks, table, [4], 4)
        long = reference_paged_attention(query, kv_blocks, table, [16], 4)
        assert not np.allclose(short, long)
