"""Profiler and smi tooling analogs."""

import pytest

from repro.hw.power import ActivityProfile
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.tools import GaudiProfiler, hl_smi, nvidia_smi


class TestProfiler:
    def test_reverse_engineer_recovers_figure7a(self):
        """The Section 3.2 methodology: the geometry map per (M, N)."""
        profiler = GaudiProfiler()
        records = profiler.reverse_engineer_mme(
            m_sizes=(64, 1024, 16384), n_sizes=(64, 1024, 16384)
        )
        assert len(records) == 9
        by_shape = {(r["m"], r["n"]): r for r in records}
        # Small shapes power gate, big squares use the full pair,
        # skinny shapes pick elongated geometries.
        assert by_shape[(64, 64)]["power_gated"]
        assert by_shape[(16384, 16384)]["geometry"] == "256x256x2"
        tall = by_shape[(16384, 64)]["geometry"]
        height, width = tall.split("x")[0:2]
        assert int(height) > int(width)

    def test_geometry_map_groups(self):
        grouped = GaudiProfiler().geometry_map((64, 16384), (64, 16384))
        assert sum(len(points) for points in grouped.values()) == 4

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            GaudiProfiler().reverse_engineer_mme((), (64,))


class TestSmi:
    def test_hl_smi_reads_gaudi(self):
        sample = hl_smi(ActivityProfile(memory_util=0.8))
        assert sample.device == "Gaudi-2"
        assert sample.power_limit_watts == 600
        assert GAUDI2_SPEC.power.idle_watts < sample.power_watts < 600

    def test_nvidia_smi_reads_a100(self):
        sample = nvidia_smi(ActivityProfile(matrix_busy=0.5))
        assert sample.device == "A100"
        assert sample.power_limit_watts == 400

    def test_vendor_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hl_smi(ActivityProfile(), spec=A100_SPEC)
        with pytest.raises(ValueError):
            nvidia_smi(ActivityProfile(), spec=GAUDI2_SPEC)

    def test_render_one_liner(self):
        text = hl_smi(ActivityProfile(memory_util=0.5)).render()
        assert "Gaudi-2" in text and "W" in text
