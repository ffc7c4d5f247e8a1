"""H100 (Hopper) tile-GEMM backend."""

import math

import pytest

from repro.hw.device import A100Device
from repro.hw.hopper import (
    DEFAULT_TILE_SHAPES,
    H100Device,
    H100_SPEC,
    TILE_PIPELINE_EFFICIENCY,
    TileGemmModel,
)
from repro.hw.spec import DType, TERA, get_spec


class TestSpec:
    def test_table1_numbers(self):
        assert H100_SPEC.name == "H100"
        assert H100_SPEC.matrix.peak(DType.BF16) == pytest.approx(989.5 * TERA)
        assert H100_SPEC.memory.hbm_type == "HBM3"
        assert H100_SPEC.memory.bandwidth == pytest.approx(3.35 * TERA)
        assert H100_SPEC.power.tdp_watts == 700.0

    def test_registered_under_aliases(self):
        assert get_spec("h100") is H100_SPEC
        assert get_spec("hopper") is H100_SPEC

    def test_nvswitch_fabric(self):
        assert H100_SPEC.interconnect.kind == "switch"


class TestTileModel:
    def setup_method(self):
        self.model = TileGemmModel(H100_SPEC)

    def test_large_square_near_peak(self):
        est = self.model.gemm(8192, 8192, 8192)
        # Compute-bound; pipeline efficiency is the ceiling.
        assert not est.memory_bound
        assert 0.88 <= est.utilization <= TILE_PIPELINE_EFFICIENCY + 1e-9

    def test_selects_registered_tile(self):
        est = self.model.gemm(4096, 4096, 4096)
        assert est.tile in DEFAULT_TILE_SHAPES

    def test_streamk_softens_wave_quantization(self):
        """A grid one tile past a full wave costs a fractional wave,
        not a whole one (stream-K tail splitting)."""
        tile = self.model.select_tile(4096, 4096, 4096)
        tm, _ = tile
        sm = self.model.sm_count
        # One column of tiles per SM, then one extra row of tiles.
        full = self.model._grid_cycles(tile, sm, 4096)
        tail = self.model._grid_cycles(tile, sm + 1, 4096)
        two = self.model._grid_cycles(tile, 2 * sm, 4096)
        assert full < tail < two
        assert (tail - full) < 0.5 * (two - full)

    def test_fractional_waves_reported(self):
        est = self.model.gemm(512, 512, 512)
        tm, tn = est.tile
        tiles = math.ceil(512 / tm) * math.ceil(512 / tn)
        assert est.waves == pytest.approx(
            tiles // self.model.sm_count
            + (tiles % self.model.sm_count) / self.model.sm_count
        )

    def test_skinny_gemm_memory_bound(self):
        est = self.model.gemm(8192, 8192, 16)
        assert est.memory_bound

    def test_batched_extends_grid(self):
        single = self.model.gemm(1024, 1024, 1024)
        batched = self.model.batched_gemm(4, 1024, 1024, 1024)
        assert batched.time > single.time
        assert batched.time <= 4 * single.time * (1 + 1e-9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            self.model.gemm(0, 128, 128)
        with pytest.raises(ValueError):
            self.model.batched_gemm(0, 128, 128, 128)


class TestH100Device:
    def setup_method(self):
        self.h100 = H100Device()
        self.a100 = A100Device()

    def test_capabilities(self):
        assert self.h100.family == "cuda"
        assert self.h100.decode_attention == "paged-cuda"
        assert self.h100.smi_style == "nvidia-smi"
        assert self.h100.attention_efficiency > self.a100.attention_efficiency

    def test_config_label_names_tile_and_waves(self):
        label = self.h100.gemm(4096, 4096, 4096).config_label
        assert label.startswith("Tile ")
        assert "TMA" in label and "waves" in label

    def test_beats_a100_on_large_gemm(self):
        """Generational headroom: ~3.2x peak shows up as >2x achieved."""
        h = self.h100.gemm(8192, 8192, 8192)
        a = self.a100.gemm(8192, 8192, 8192)
        assert h.achieved_flops > 2.0 * a.achieved_flops

    def test_holds_utilization_on_awkward_shape(self):
        """Stream-K + tile-shape choice keeps utilization above the
        A100's wave-quantized result on a deliberately awkward shape."""
        m = n = 132 * 64 + 64  # one tile past a full wave for 64x64
        h = self.h100.gemm(m, 4096, n)
        a = self.a100.gemm(m, 4096, n)
        assert h.utilization > a.utilization

    def test_nccl_fabric(self):
        from repro.comm.api import NcclLibrary

        assert isinstance(self.h100.collective_library(), NcclLibrary)
