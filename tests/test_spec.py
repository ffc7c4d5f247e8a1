"""Device spec sheets (Table 1)."""

import pytest

from repro.hw.spec import (
    A100_SPEC,
    GAUDI2_SPEC,
    DType,
    get_spec,
    spec_comparison_rows_for,
)


class TestDType:
    def test_itemsizes(self):
        """Every member's value, lookup and itemsize, the latter a plain
        per-member attribute rather than a computed property."""
        assert {m.name: (m.value, m.itemsize) for m in DType} == {
            "BF16": ("bf16", 2), "FP16": ("fp16", 2),
            "FP32": ("fp32", 4), "INT8": ("int8", 1),
        }
        for member in DType:
            assert DType(member.value) is member
            assert type(member.itemsize) is int
            assert vars(member)["itemsize"] == member.itemsize


class TestTable1Values:
    """The spec sheets must reproduce Table 1 exactly."""

    def test_matrix_peaks(self):
        assert GAUDI2_SPEC.matrix.peak(DType.BF16) == pytest.approx(432e12)
        assert A100_SPEC.matrix.peak(DType.BF16) == pytest.approx(312e12)

    def test_vector_peaks(self):
        assert GAUDI2_SPEC.vector.peak(DType.BF16) == pytest.approx(11e12)
        assert A100_SPEC.vector.peak(DType.BF16) == pytest.approx(39e12)

    def test_matrix_ratio_is_1_4x(self):
        ratio = GAUDI2_SPEC.matrix.peak(DType.BF16) / A100_SPEC.matrix.peak(DType.BF16)
        assert ratio == pytest.approx(1.4, abs=0.05)

    def test_hbm_capacity(self):
        assert GAUDI2_SPEC.memory.capacity_bytes == 96 * 1024**3
        assert A100_SPEC.memory.capacity_bytes == 80 * 1024**3

    def test_hbm_bandwidth(self):
        assert GAUDI2_SPEC.memory.bandwidth == pytest.approx(2.45e12)
        assert A100_SPEC.memory.bandwidth == pytest.approx(2.0e12)

    def test_sram_capacity(self):
        assert GAUDI2_SPEC.memory.sram_bytes == 48 * 1024**2
        assert A100_SPEC.memory.sram_bytes == 40 * 1024**2

    def test_tdp(self):
        assert GAUDI2_SPEC.power.tdp_watts == 600.0
        assert A100_SPEC.power.tdp_watts == 400.0

    def test_interconnect_bandwidth_parity(self):
        assert (
            GAUDI2_SPEC.interconnect.per_device_bandwidth
            == A100_SPEC.interconnect.per_device_bandwidth
        )


class TestMicroarchitecture:
    def test_gaudi_mme_mac_count(self):
        assert GAUDI2_SPEC.matrix.total_macs == 2 * 256 * 256

    def test_mme_clock_consistent_with_peak(self):
        derived = 2 * GAUDI2_SPEC.matrix.total_macs * GAUDI2_SPEC.matrix.clock_hz
        assert derived == pytest.approx(GAUDI2_SPEC.matrix.peak(DType.BF16))

    def test_tpc_simd_width(self):
        assert GAUDI2_SPEC.vector.simd_width_bits == 2048
        assert GAUDI2_SPEC.vector.lanes(DType.BF16) == 128
        assert GAUDI2_SPEC.vector.lanes(DType.FP32) == 64

    def test_tpc_instruction_latency_is_4(self):
        assert GAUDI2_SPEC.vector.instruction_latency == 4

    def test_access_granularities(self):
        assert GAUDI2_SPEC.memory.min_access_bytes == 256
        assert A100_SPEC.memory.min_access_bytes == 32

    def test_gaudi_configurable_a100_not(self):
        assert GAUDI2_SPEC.matrix.configurable
        assert not A100_SPEC.matrix.configurable

    def test_only_a100_sram_is_cache(self):
        assert A100_SPEC.memory.sram_is_cache
        assert not GAUDI2_SPEC.memory.sram_is_cache

    def test_gaudi_links_per_pair(self):
        assert GAUDI2_SPEC.interconnect.links_per_pair == 3


class TestLookup:
    @pytest.mark.parametrize("alias", ["gaudi2", "Gaudi-2", "hpu", "HPU"])
    def test_gaudi_aliases(self, alias):
        assert get_spec(alias).name == "Gaudi-2"

    @pytest.mark.parametrize("alias", ["a100", "cuda", "gpu"])
    def test_a100_aliases(self, alias):
        assert get_spec(alias).name == "A100"

    def test_unknown_device_raises_typed_config_error(self):
        from repro.audit.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown backend"):
            get_spec("tpu")

    def test_unknown_device_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            get_spec("tpu")


class TestComparisonRows:
    def test_has_eight_rows(self):
        assert len(spec_comparison_rows_for([A100_SPEC, GAUDI2_SPEC])) == 8

    def test_power_ratio_row(self):
        rows = dict((r[0], r[3]) for r in spec_comparison_rows_for([A100_SPEC, GAUDI2_SPEC]))
        assert rows["Power (Watts)"] == "1.5x"
