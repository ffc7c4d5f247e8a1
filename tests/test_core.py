"""Characterization framework: metrics, roofline, reports, and the
Table 2 registry."""

import pytest

from repro.core import (
    MICROBENCHMARKS,
    Roofline,
    geometric_mean,
    ratio,
    render_heatmap,
    render_table,
    tflops,
    utilization,
)
from repro.core.metrics import arithmetic_mean, bandwidth_utilization, percentile
from repro.core.microbench import table2_rows
from repro.hw.spec import GAUDI2_SPEC


class TestMetrics:
    def test_tflops(self):
        assert tflops(2e12, 2.0) == 1.0

    def test_utilization(self):
        assert utilization(50.0, 200.0) == 0.25

    def test_ratio_guard(self):
        with pytest.raises(ZeroDivisionError):
            ratio(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0

    def test_bandwidth_utilization(self):
        assert bandwidth_utilization(1e12, 1.0, 2e12) == 0.5

    def test_percentile(self):
        data = list(range(1, 101))
        assert percentile(data, 99) == 99
        assert percentile(data, 100) == 100
        with pytest.raises(ValueError):
            percentile([], 50)


class TestRoofline:
    def test_ridge_point(self):
        roofline = Roofline(peak_flops=432e12, peak_bandwidth=2.45e12)
        assert roofline.ridge_point == pytest.approx(432 / 2.45)

    def test_attainable_below_and_above_ridge(self):
        roofline = Roofline(100e12, 1e12)
        assert roofline.attainable(10) == 10e12
        assert roofline.attainable(1000) == 100e12

    def test_memory_bound_classification(self):
        roofline = Roofline(100e12, 1e12)
        assert roofline.is_memory_bound(50)
        assert not roofline.is_memory_bound(200)

    def test_for_device(self):
        roofline = Roofline.for_device(GAUDI2_SPEC)
        assert roofline.peak_flops == pytest.approx(432e12)

    def test_place_efficiency(self):
        roofline = Roofline(100e12, 1e12)
        point = roofline.place("k", 10, 5e12)
        assert point.efficiency == pytest.approx(0.5)

    def test_curve(self):
        roofline = Roofline(100e12, 1e12)
        curve = roofline.curve([1.0, 1000.0])
        assert curve[0][1] == 1e12
        assert curve[1][1] == 100e12


class TestReport:
    def test_table_rendering(self):
        text = render_table(["a", "b"], [(1, 2), (3, 4)], title="T")
        assert "T" in text
        assert "3" in text

    def test_table_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [(1, 2)])

    def test_heatmap_rendering(self):
        text = render_heatmap([[0.1, 0.9]], ["r"], ["c1", "c2"])
        assert "0.10" in text and "0.90" in text

    def test_heatmap_constant_grid_ok(self):
        render_heatmap([[1.0, 1.0]], ["r"], ["a", "b"])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            render_heatmap([], [], [])


class TestMicrobenchRegistry:
    def test_table2_has_four_suites(self):
        assert len(MICROBENCHMARKS) == 4
        categories = {m.category for m in MICROBENCHMARKS}
        assert categories == {"Compute", "Memory", "Communication"}

    def test_rows_pair_gaudi_and_a100(self):
        rows = table2_rows()
        assert len(rows) == 8
        assert rows[0][2] == "Gaudi-2"
        assert rows[1][2] == "A100"

    def test_modules_exist(self):
        import importlib

        for spec in MICROBENCHMARKS:
            importlib.import_module(spec.module)
