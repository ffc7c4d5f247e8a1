"""GEMM kernel wrappers and sweeps (Figures 4, 5)."""

import pytest

from repro.kernels.gemm import (
    GemmPoint,
    operational_intensity,
    run_gemm,
    sweep_irregular,
    sweep_square,
    utilization_grid,
)
from repro.hw.spec import DType


class TestOperationalIntensity:
    def test_square_gemm_intensity(self):
        # 2 N^3 flops over 3 N^2 x 2 bytes.
        assert operational_intensity(1024, 1024, 1024, DType.BF16) == pytest.approx(
            2 * 1024 / 6
        )

    def test_irregular_gemm_low_intensity(self):
        square = operational_intensity(4096, 4096, 4096, DType.BF16)
        skinny = operational_intensity(4096, 4096, 16, DType.BF16)
        assert skinny < square / 10


class TestRunGemm:
    def test_point_fields(self, gaudi):
        point = run_gemm(device=gaudi, m=1024, k=1024, n=1024)
        assert isinstance(point, GemmPoint)
        assert point.device == "Gaudi-2"
        assert point.achieved_tflops > 0
        assert point.config_label.startswith("MME")

    def test_gaudi_8192_matches_paper(self, gaudi):
        point = run_gemm(device=gaudi, m=8192, k=8192, n=8192)
        assert point.achieved_tflops == pytest.approx(429, abs=5)

    def test_gaudi_beats_a100_on_irregular(self, gaudi, a100):
        for size in (2048, 8192):
            pg = run_gemm(device=gaudi, m=size, k=size, n=16)
            pa = run_gemm(device=a100, m=size, k=size, n=16)
            assert pg.achieved_tflops > pa.achieved_tflops


class TestSweeps:
    def test_square_sweep_covers_sizes(self, gaudi):
        points = sweep_square(gaudi, sizes=(256, 1024))
        assert [(p.m, p.n) for p in points] == [(256, 256), (1024, 1024)]

    def test_irregular_sweep_fixes_n(self, a100):
        points = sweep_irregular(a100, sizes=(1024,))
        assert points[0].n == 16

    def test_utilization_grid_shape(self, gaudi):
        grid = utilization_grid(gaudi, (512, 1024), (512, 1024, 2048), k=2048)
        assert len(grid) == 2
        assert len(grid[0]) == 3
        assert all(0 < u <= 1 for row in grid for u in row)

    def test_utilization_grows_with_size(self, gaudi):
        grid = utilization_grid(gaudi, (256, 4096), (256, 4096), k=4096)
        assert grid[1][1] > grid[0][0]
