"""Gaudi-3 projection (footnote 1 extension)."""

import pytest

from repro.hw.backend import get_backend
from repro.hw.gaudi3 import GAUDI3_SPEC, Gaudi3Device
from repro.hw.spec import DType, GAUDI2_SPEC
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel


class TestSpecScaling:
    def test_announced_peaks(self):
        assert GAUDI3_SPEC.matrix.peak(DType.BF16) == pytest.approx(1835e12)
        assert GAUDI3_SPEC.memory.bandwidth == pytest.approx(3.7e12)
        assert GAUDI3_SPEC.memory.capacity_bytes == 128 * 1024**3
        assert GAUDI3_SPEC.power.tdp_watts == 900.0

    def test_64_tpcs(self):
        assert GAUDI3_SPEC.vector.num_cores == 64
        ratio = GAUDI3_SPEC.vector.peak(DType.BF16) / GAUDI2_SPEC.vector.peak(DType.BF16)
        assert ratio == pytest.approx(64 / 24)

    def test_architecture_carries_over(self):
        """Footnote 1: 'virtually identical' architecture."""
        assert GAUDI3_SPEC.memory.min_access_bytes == 256
        assert GAUDI3_SPEC.interconnect.kind == "p2p-mesh"
        assert not GAUDI3_SPEC.memory.sram_is_cache
        assert GAUDI3_SPEC.matrix.configurable

    def test_200gbe_links(self):
        assert GAUDI3_SPEC.interconnect.link_bandwidth == pytest.approx(25e9)


class TestDevice:
    def test_factory_alias(self):
        device = get_backend("gaudi3")
        assert isinstance(device, Gaudi3Device)
        assert device.name == "Gaudi-3"

    def test_big_gemm_near_peak(self):
        device = Gaudi3Device()
        result = device.gemm(16384, 16384, 16384)
        assert result.achieved_flops / 1e12 == pytest.approx(1825, rel=0.02)

    def test_quarter_array_is_power_gated(self):
        """``256x256x2`` drives a quarter of Gaudi-3's 524 288 MACs (the
        whole of Gaudi-2's array), so it gates the other three quarters."""
        config = Gaudi3Device().mme.select_config(256, 4096, 512)
        assert config.geometry.label == "256x256x2"
        assert config.geometry.active_macs * 4 == GAUDI3_SPEC.matrix.total_macs
        assert config.power_gated

    def test_faster_than_gaudi2_everywhere(self):
        g2, g3 = get_backend("gaudi2"), get_backend("gaudi3")
        for shape in [(512, 512, 512), (8192, 8192, 8192), (8192, 8192, 16)]:
            assert g3.gemm(*shape).time < g2.gemm(*shape).time

    def test_llm_serving_projection(self):
        """The projection the paper's footnote implies: a larger win."""
        g2, g3, a100 = get_backend("gaudi2"), get_backend("gaudi3"), get_backend("a100")
        ea = LlamaCostModel(LLAMA_3_1_8B, a100).generate(32, 100, 100)
        e2 = LlamaCostModel(LLAMA_3_1_8B, g2).generate(32, 100, 100)
        e3 = LlamaCostModel(LLAMA_3_1_8B, g3).generate(32, 100, 100)
        assert ea.total_time / e3.total_time > ea.total_time / e2.total_time
        assert ea.total_time / e3.total_time > 1.8

    def test_projection_outgrows_gaudi2_by_half(self):
        """The announced compute/bandwidth scaling shows: Gaudi-3's
        speedup over A100 exceeds 1.5x Gaudi-2's, small and large batch."""
        a100 = get_backend("a100")
        for batch, out in ((16, 100), (64, 400)):
            ref = LlamaCostModel(LLAMA_3_1_8B, a100).generate(batch, 100, out).total_time
            g2, g3 = (
                ref / LlamaCostModel(LLAMA_3_1_8B, get_backend(name))
                .generate(batch, 100, out).total_time
                for name in ("gaudi2", "gaudi3")
            )
            assert g3 > 1.5 * g2

    def test_power_stays_within_tdp(self):
        g3 = get_backend("gaudi3")
        estimate = LlamaCostModel(LLAMA_3_1_8B, g3).generate(64, 100, 100)
        assert estimate.average_power <= 900.0
