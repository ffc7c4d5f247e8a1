"""Embedding-lookup operators (Section 4.1, Figures 14, 15)."""

import numpy as np
import pytest

from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.kernels.embedding import (
    A100Fbgemm,
    EmbeddingConfig,
    GaudiBatchedTable,
    GaudiSdkSingleTable,
    GaudiSingleTable,
    make_operator,
    reference_embedding_bag,
)


def _config(tables=20, dim=64, batch=1024, pooling=20):
    return EmbeddingConfig(
        num_tables=tables,
        rows_per_table=1_000_000,
        embedding_dim=dim,
        pooling=pooling,
        batch_size=batch,
    )


class TestConfig:
    def test_derived_quantities(self):
        config = _config(tables=4, dim=64, batch=8, pooling=2)
        assert config.row_bytes == 256
        assert config.lookups_per_table == 16
        assert config.total_lookups == 64
        assert config.useful_bytes == 64 * 256
        assert config.output_bytes == 32 * 256

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            _config(tables=0)


class TestOperatorRelationships:
    def test_single_table_launches_per_table(self):
        result = GaudiSingleTable(GAUDI2_SPEC).run(_config(tables=7))
        assert result.launches == 7

    def test_batched_table_single_launch(self):
        result = GaudiBatchedTable(GAUDI2_SPEC).run(_config(tables=7))
        assert result.launches == 1

    def test_batched_beats_single_at_low_batch(self):
        config = _config(batch=128)
        single = GaudiSingleTable(GAUDI2_SPEC).run(config)
        batched = GaudiBatchedTable(GAUDI2_SPEC).run(config)
        assert batched.time < single.time / 2

    def test_gap_diminishes_at_large_batch(self):
        """Paper: SingleTable catches up as batch size grows."""
        small_ratio = (
            GaudiSingleTable(GAUDI2_SPEC).run(_config(batch=128)).time
            / GaudiBatchedTable(GAUDI2_SPEC).run(_config(batch=128)).time
        )
        large_ratio = (
            GaudiSingleTable(GAUDI2_SPEC).run(_config(batch=32768)).time
            / GaudiBatchedTable(GAUDI2_SPEC).run(_config(batch=32768)).time
        )
        assert large_ratio < small_ratio / 2
        assert large_ratio < 1.3

    def test_custom_single_beats_sdk(self):
        """Paper: the custom SingleTable is ~1.6x the SDK operator."""
        config = _config(batch=4096)
        sdk = GaudiSdkSingleTable(GAUDI2_SPEC).run(config)
        custom = GaudiSingleTable(GAUDI2_SPEC).run(config)
        assert 1.2 < sdk.time / custom.time < 4.0

    def test_batched_utilization_rises_with_tables(self):
        """Figure 15(a): BatchedTable utilization grows with tables."""
        utils = [
            GaudiBatchedTable(GAUDI2_SPEC).run(_config(tables=t, batch=512)).bandwidth_utilization
            for t in (1, 5, 20)
        ]
        assert utils[0] < utils[1] < utils[2]

    def test_single_table_flat_vs_tables(self):
        """Figure 15(a): SingleTable utilization does not grow."""
        utils = [
            GaudiSingleTable(GAUDI2_SPEC).run(_config(tables=t, batch=512)).bandwidth_utilization
            for t in (1, 5, 20)
        ]
        assert max(utils) / min(utils) < 1.2


class TestVsA100:
    def test_near_parity_for_large_vectors(self):
        """Paper: ~95 % of FBGEMM for >=256 B vectors."""
        config = _config(dim=128, batch=16384)  # 512 B rows
        gaudi = GaudiBatchedTable(GAUDI2_SPEC).run(config)
        a100 = A100Fbgemm(A100_SPEC).run(config)
        assert a100.time / gaudi.time == pytest.approx(0.9, abs=0.15)

    def test_half_speed_for_small_vectors(self):
        """Paper: ~47 % of FBGEMM below 256 B."""
        config = _config(dim=16, batch=16384)  # 64 B rows
        gaudi = GaudiBatchedTable(GAUDI2_SPEC).run(config)
        a100 = A100Fbgemm(A100_SPEC).run(config)
        assert a100.time / gaudi.time == pytest.approx(0.47, abs=0.15)

    def test_a100_peak_utilization(self):
        result = A100Fbgemm(A100_SPEC).run(_config(dim=256, batch=32768))
        assert result.bandwidth_utilization == pytest.approx(0.80, abs=0.06)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("sdk", GaudiSdkSingleTable),
            ("single", GaudiSingleTable),
            ("batched", GaudiBatchedTable),
            ("fbgemm", A100Fbgemm),
        ],
    )
    def test_make_operator(self, name, cls):
        spec = A100_SPEC if name == "fbgemm" else GAUDI2_SPEC
        assert isinstance(make_operator(name, spec), cls)

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            make_operator("magic", GAUDI2_SPEC)


class TestFunctional:
    def test_embedding_bag_sums_pooled_rows(self):
        tables = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        indices = np.array([[[0, 1], [2, 2]]])  # batch=1, tables=2, pooling=2
        out = reference_embedding_bag(tables, indices)
        np.testing.assert_allclose(out[0, 0], tables[0, 0] + tables[0, 1])
        np.testing.assert_allclose(out[0, 1], 2 * tables[1, 2])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reference_embedding_bag(np.zeros((2, 4, 3)), np.zeros((1, 3, 2), dtype=int))

    def test_output_shape(self):
        tables = np.zeros((3, 10, 8))
        indices = np.zeros((5, 3, 4), dtype=int)
        assert reference_embedding_bag(tables, indices).shape == (5, 3, 8)
