"""Property-based tests over the operator-level invariants.

These pin the *orderings* the paper's case studies rest on: the
optimized implementation never loses to its baseline, utilizations stay
physical, and costs are monotone in work -- across randomly drawn
configurations, not just the sweep points the figures use.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.kernels.embedding import (
    A100Fbgemm,
    EmbeddingConfig,
    GaudiBatchedTable,
    GaudiSdkSingleTable,
    GaudiSingleTable,
)
from repro.kernels.paged_attention import (
    PagedAttentionConfig,
    a100_paged_attention,
    vllm_base_paged_attention,
    vllm_opt_paged_attention,
)

_SDK = GaudiSdkSingleTable(GAUDI2_SPEC)
_SINGLE = GaudiSingleTable(GAUDI2_SPEC)
_BATCHED = GaudiBatchedTable(GAUDI2_SPEC)
_FBGEMM = A100Fbgemm(A100_SPEC)

embedding_configs = st.builds(
    EmbeddingConfig,
    num_tables=st.integers(1, 24),
    rows_per_table=st.sampled_from([10_000, 1_000_000]),
    embedding_dim=st.sampled_from([8, 16, 32, 64, 128, 256]),
    pooling=st.integers(1, 32),
    batch_size=st.sampled_from([16, 128, 1024, 8192]),
)


class TestEmbeddingInvariants:
    @given(config=embedding_configs)
    @settings(max_examples=60, deadline=None)
    def test_batched_never_slower_than_single(self, config):
        assert _BATCHED.run(config).time <= _SINGLE.run(config).time * 1.0001

    @given(config=embedding_configs)
    @settings(max_examples=60, deadline=None)
    def test_custom_single_never_slower_than_sdk(self, config):
        assert _SINGLE.run(config).time <= _SDK.run(config).time * 1.0001

    @given(config=embedding_configs)
    @settings(max_examples=60, deadline=None)
    def test_utilization_physical(self, config):
        for operator in (_SDK, _SINGLE, _BATCHED, _FBGEMM):
            result = operator.run(config)
            assert 0.0 < result.bandwidth_utilization <= 1.0
            assert result.time > 0

    @given(config=embedding_configs, factor=st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_time_monotone_in_batch(self, config, factor):
        bigger = EmbeddingConfig(
            num_tables=config.num_tables,
            rows_per_table=config.rows_per_table,
            embedding_dim=config.embedding_dim,
            pooling=config.pooling,
            batch_size=config.batch_size * factor,
        )
        for operator in (_BATCHED, _FBGEMM):
            assert operator.run(bigger).time >= operator.run(config).time * 0.999


# The serving regime the paper sweeps (batch >= 4, seq >= 512); below
# it, the optimized path's pipelining overhead can legitimately exceed
# the baseline's cost on trivially small KV footprints.
paged_configs = st.builds(
    PagedAttentionConfig.uniform,
    batch=st.integers(4, 64),
    seq_len=st.sampled_from([512, 2048, 8192]),
    q_heads=st.sampled_from([16, 32]),
    kv_heads=st.sampled_from([4, 8]),
    head_dim=st.sampled_from([64, 128]),
)


class TestPagedAttentionInvariants:
    @given(config=paged_configs)
    @settings(max_examples=60, deadline=None)
    def test_opt_never_slower_than_base(self, config):
        assert (
            vllm_opt_paged_attention(config, GAUDI2_SPEC).time
            <= vllm_base_paged_attention(config, GAUDI2_SPEC).time * 1.0001
        )

    @given(config=paged_configs)
    @settings(max_examples=60, deadline=None)
    def test_times_positive_and_finite(self, config):
        for impl, spec in ((vllm_base_paged_attention, GAUDI2_SPEC),
                           (vllm_opt_paged_attention, GAUDI2_SPEC),
                           (a100_paged_attention, A100_SPEC)):
            result = impl(config, spec)
            assert 0 < result.time < 10.0
            assert result.tokens_per_second > 0

    @given(
        batch=st.integers(1, 32),
        short=st.sampled_from([256, 512]),
        factor=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_monotone_in_context(self, batch, short, factor):
        small = PagedAttentionConfig.uniform(batch, short)
        large = PagedAttentionConfig.uniform(batch, short * factor)
        for impl in (vllm_base_paged_attention, vllm_opt_paged_attention):
            assert impl(large, GAUDI2_SPEC).time >= impl(small, GAUDI2_SPEC).time * 0.999

    @given(
        batch=st.integers(2, 32),
        max_seq=st.sampled_from([1024, 4096]),
        short=st.sampled_from([128, 256]),
    )
    @settings(max_examples=40, deadline=None)
    def test_padding_never_helps_base_relative_to_opt(self, batch, max_seq, short):
        assume(short < max_seq)
        uniform = PagedAttentionConfig.uniform(batch, max_seq)
        padded = PagedAttentionConfig(
            batch=batch,
            seq_lens=[max_seq] + [short] * (batch - 1),
            q_heads=32, kv_heads=8, head_dim=128,
        )
        ratio_uniform = (
            vllm_base_paged_attention(uniform, GAUDI2_SPEC).time
            / vllm_opt_paged_attention(uniform, GAUDI2_SPEC).time
        )
        ratio_padded = (
            vllm_base_paged_attention(padded, GAUDI2_SPEC).time
            / vllm_opt_paged_attention(padded, GAUDI2_SPEC).time
        )
        assert ratio_padded >= ratio_uniform * 0.999
