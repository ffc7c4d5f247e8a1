"""Gaudi-2 MME model (Figures 4, 5, 7)."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import memo
from repro.hw.device import Gaudi2Device
from repro.hw.gaudi3 import GAUDI3_GEOMETRIES, GAUDI3_SPEC
from repro.hw.mme import DEFAULT_GEOMETRIES, MmeModel
from repro.hw.spec import DType, GAUDI2_SPEC
from repro.hw.systolic import best_geometry


@pytest.fixture(scope="module")
def mme():
    return MmeModel(GAUDI2_SPEC)


class TestConfigSelection:
    def test_square_gemm_uses_full_array(self, mme):
        config = mme.select_config(4096, 4096, 4096)
        assert config.geometry.active_macs == GAUDI2_SPEC.matrix.total_macs
        assert not config.power_gated

    def test_tall_skinny_picks_tall_geometry(self, mme):
        config = mme.select_config(8192, 8192, 16)
        assert config.geometry.height > config.geometry.width

    def test_short_wide_picks_wide_geometry(self, mme):
        config = mme.select_config(16, 8192, 8192)
        assert config.geometry.width > config.geometry.height

    def test_tiny_gemm_power_gates(self, mme):
        config = mme.select_config(64, 64, 64)
        assert config.power_gated

    def test_geometry_set_matches_figure7a(self):
        labels = {g.label for g in DEFAULT_GEOMETRIES}
        assert {"256x256x2", "512x256", "1024x128", "128x128"} <= labels


class TestGemmEstimates:
    def test_peak_utilization_at_8192_matches_paper(self, mme):
        """Paper: 429 TFLOPS = 99.3 % of peak at M=K=N=8192."""
        estimate = mme.gemm(8192, 8192, 8192)
        assert estimate.achieved_flops / 1e12 == pytest.approx(429, abs=4)
        assert estimate.utilization == pytest.approx(0.993, abs=0.01)

    def test_small_gemm_low_utilization(self, mme):
        assert mme.gemm(256, 256, 256).utilization < 0.3

    def test_irregular_gemm_memory_bound(self, mme):
        estimate = mme.gemm(8192, 8192, 16)
        assert estimate.memory_bound

    def test_square_gemm_compute_bound(self, mme):
        assert not mme.gemm(4096, 4096, 4096).memory_bound

    def test_time_monotone_in_k(self, mme):
        assert mme.gemm_time(1024, 2048, 1024) > mme.gemm_time(1024, 1024, 1024)

    def test_fp32_slower_than_bf16(self, mme):
        bf16 = mme.gemm_time(2048, 2048, 2048, DType.BF16)
        fp32 = mme.gemm_time(2048, 2048, 2048, DType.FP32)
        assert fp32 > 2 * bf16

    def test_invalid_shape_raises(self, mme):
        with pytest.raises(ValueError):
            mme.gemm(0, 128, 128)

    def test_active_mac_fraction_of_gated_config(self, mme):
        estimate = mme.gemm(64, 64, 64)
        assert estimate.active_mac_fraction < 1.0


class TestConfigurability:
    def test_configurable_beats_fixed_on_skinny_shapes(self, mme):
        """Figure 7(c): the configurable MME wins on small-N GEMMs."""
        for n in (32, 64, 128):
            configurable = mme.gemm(16384, 16384, n).utilization
            fixed = mme.fixed_array_utilization(16384, 16384, n)
            assert configurable > fixed

    def test_gain_up_to_15_points(self, mme):
        """Paper: up to ~15 pp improvement vs the fixed array."""
        gains = [
            mme.gemm(16384, 16384, n).utilization
            - mme.fixed_array_utilization(16384, 16384, n)
            for n in (32, 64, 128, 256, 512)
        ]
        assert 0.05 < max(gains) < 0.25

    def test_workload_shapes_gain_over_fixed_array(self):
        """Ablation over the GEMM shapes the evaluated workloads issue:
        decode (skinny M), prefill, DLRM MLP layers and the lm-head.
        Reconfigurability must not hurt overall and must help somewhere."""
        shapes = (
            (16, 4096, 14336), (64, 4096, 14336), (6400, 4096, 6144),
            (16384, 8192, 28672), (4096, 704, 512), (64, 4096, 128256),
            (16384, 16384, 64),
        )
        flexible = Gaudi2Device(mme_configurable=True)
        fixed = Gaudi2Device(mme_configurable=False)
        gains = [fixed.gemm(*shape).time / flexible.gemm(*shape).time for shape in shapes]
        assert statistics.geometric_mean(gains) >= 1.0
        assert max(gains) > 1.1

    def test_non_configurable_model_has_one_geometry(self):
        fixed = MmeModel(GAUDI2_SPEC, configurable=False)
        assert len(fixed.geometries) == 1
        assert fixed.geometries[0].label == "256x256x2"

    def test_fixed_never_beats_configurable(self, mme):
        fixed = MmeModel(GAUDI2_SPEC, configurable=False)
        for shape in [(512, 4096, 64), (4096, 512, 4096), (128, 128, 128)]:
            assert mme.gemm_time(*shape) <= fixed.gemm_time(*shape) + 1e-12


class TestBatchedGemm:
    def test_batched_equals_single_at_batch_one(self, mme):
        single = mme.gemm(512, 512, 512)
        batched = mme.batched_gemm(1, 512, 512, 512)
        assert batched.time == pytest.approx(single.time, rel=0.01)

    def test_batching_improves_utilization_of_small_gemms(self, mme):
        single = mme.gemm(128, 128, 128)
        batched = mme.batched_gemm(64, 128, 128, 128)
        assert batched.utilization > single.utilization

    def test_invalid_batch_raises(self, mme):
        with pytest.raises(ValueError):
            mme.batched_gemm(0, 128, 128, 128)


#: One model per geometry set; module-level so the class-keyed cache
#: stays warm across hypothesis examples.
_GEOMETRY_SETS = {
    "gaudi2": MmeModel(GAUDI2_SPEC),
    "gaudi3": MmeModel(GAUDI3_SPEC, geometries=GAUDI3_GEOMETRIES),
    "fixed-array": MmeModel(GAUDI2_SPEC, configurable=False),
}


def _sibling(value: int, tile: int, offset: int) -> int:
    """Another member of ``value``'s class ``ceil(value / tile)``."""
    return (-(-value // tile) - 1) * tile + 1 + offset % tile


class TestClassKeyedSearch:
    """The geometry search memoizes on ``(ceil(m / g_h), k, ceil(n /
    g_w), dtype)``; a config served from a sibling shape's entry must
    equal the exact search for the shape itself."""

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(_GEOMETRY_SETS)),
        # Small dims so examples share classes (the cache stays warm
        # across examples); large ones for the tall/wide geometries.
        m=st.integers(1, 1_100) | st.integers(1, 20_000),
        k=st.sampled_from([1, 64, 4096]) | st.integers(1, 20_000),
        n=st.integers(1, 1_100) | st.integers(1, 20_000),
        dm=st.integers(0, 255),
        dn=st.integers(0, 255),
        dtype=st.sampled_from([DType.BF16, DType.FP32]),
    )
    def test_class_keyed_config_equals_exact_search(self, name, m, k, n, dm, dn, dtype):
        model = _GEOMETRY_SETS[name]
        g_h = math.gcd(*(g.height for g in model.geometries))
        g_w = math.gcd(*(g.width for g in model.geometries))
        model.select_config(_sibling(m, g_h, dm), k, _sibling(n, g_w, dn), dtype)
        config = model.select_config(m, k, n, dtype)
        assert config.geometry == best_geometry(model.geometries, m, k, n)[0]
        with memo.disabled():
            assert config == model.select_config(m, k, n, dtype)
