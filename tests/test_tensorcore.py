"""A100 Tensor Core GEMM model."""

import pytest

from repro.hw.spec import A100_SPEC, DType
from repro.hw.tensorcore import TensorCoreModel


@pytest.fixture(scope="module")
def tc():
    return TensorCoreModel(A100_SPEC)


class TestTileSelection:
    def test_large_gemm_uses_large_tile(self, tc):
        tile = tc.select_tile(8192, 8192, 8192)
        assert tile[0] * tile[1] >= 128 * 128

    def test_small_gemm_uses_small_tile(self, tc):
        tile = tc.select_tile(128, 1024, 128)
        assert tile[0] * tile[1] <= 128 * 128


class TestEstimates:
    def test_large_square_near_90_percent(self, tc):
        """The model's calibrated ceiling for big square GEMMs."""
        assert tc.gemm(8192, 8192, 8192).utilization == pytest.approx(0.90, abs=0.03)

    def test_never_exceeds_peak(self, tc):
        for s in (256, 1024, 4096, 16384):
            assert tc.gemm(s, s, s).utilization <= 1.0

    def test_wave_quantization_hurts_just_over_full_wave(self, tc):
        # 109 tiles on 108 SMs takes 2 waves.
        aligned = tc.gemm(128 * 9, 4096, 128 * 12)   # 108 tiles
        over = tc.gemm(128 * 10, 4096, 128 * 11)     # 110 tiles -> 2 waves
        assert over.utilization < aligned.utilization

    def test_irregular_gemm_memory_bound(self, tc):
        assert tc.gemm(8192, 8192, 16).memory_bound

    def test_skinny_bandwidth_derate(self, tc):
        """Decode-shape GEMMs run below STREAM-level bandwidth."""
        skinny = tc.gemm(64, 8192, 8192)
        wide = tc.gemm(8192, 8192, 8192)
        assert skinny.memory_bound
        # effective bandwidth of the skinny GEMM is below the square one's ceiling
        skinny_bw = 2 * (64 * 8192 + 8192 * 8192 + 64 * 8192) / skinny.time
        assert skinny_bw < 0.85 * 2.0e12

    def test_fp32_uses_tf32_path(self, tc):
        """FP32 matmuls route through TF32 Tensor Cores (156 TFLOPS)."""
        estimate = tc.gemm(8192, 8192, 8192, DType.FP32)
        assert 100 < estimate.achieved_flops / 1e12 < 156

    def test_invalid_shape_raises(self, tc):
        with pytest.raises(ValueError):
            tc.gemm(128, -1, 128)


class TestBatched:
    def test_batched_fills_waves(self, tc):
        single = tc.gemm(64, 512, 64)
        batched = tc.batched_gemm(256, 64, 512, 64)
        assert batched.utilization > single.utilization

    def test_invalid_batch_raises(self, tc):
        with pytest.raises(ValueError):
            tc.batched_gemm(0, 64, 64, 64)


class TestVsGaudi:
    def test_gaudi_wins_all_square_shapes(self, tc, gaudi):
        """Figure 4: Gaudi-2 consistently outperforms A100."""
        for s in (512, 1024, 2048, 4096, 8192):
            assert gaudi.gemm(s, s, s).achieved_flops > tc.gemm(s, s, s).achieved_flops

    def test_utilization_gap_largest_midrange(self, tc, gaudi):
        """Figure 5: the biggest utilization delta sits at mid sizes."""
        deltas = {
            s: gaudi.gemm(s, s, s).utilization - tc.gemm(s, s, s).utilization
            for s in (512, 1024, 2048, 8192)
        }
        assert max(deltas, key=deltas.get) in (1024, 2048)
