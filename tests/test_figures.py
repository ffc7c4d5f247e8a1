"""Figure/table regeneration harness (fast mode)."""

import pytest

from repro.figures import FIGURES, run_figure
from repro.figures.common import FigureResult, register_figure

_ALL_IDS = (
    "table1", "table2", "fig04", "fig05", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig15", "fig17", "headline",
)


class TestRegistry:
    def test_every_evaluation_artifact_registered(self):
        assert set(_ALL_IDS) <= set(FIGURES)

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            register_figure("table1")(lambda fast: None)

    def test_unknown_figure(self):
        from repro.figures.common import get_figure

        with pytest.raises(KeyError):
            get_figure("fig99")


@pytest.mark.parametrize("figure_id", _ALL_IDS)
def test_figure_runs_and_is_well_formed(figure_id):
    result = run_figure(figure_id=figure_id, fast=True)
    assert isinstance(result, FigureResult)
    assert result.figure_id == figure_id
    assert result.rows
    assert result.summary
    assert result.text


class TestFigureHeadlines:
    """Spot-check the headline values each figure summary must carry."""

    def test_fig04_gaudi_peak(self):
        summary = run_figure(figure_id="fig04", fast=True).summary
        assert summary["gaudi_peak_utilization_largest_square"] == pytest.approx(
            0.993, abs=0.02
        )
        assert summary["gaudi_wins_all_square_shapes"] == 1.0

    def test_fig05_gaudi_utilization_advantage(self):
        summary = run_figure(figure_id="fig05", fast=True).summary
        assert summary["mean_square_utilization_delta"] > 0.0

    def test_fig07_configurability_gain(self):
        summary = run_figure(figure_id="fig07", fast=True).summary
        assert 0.05 < summary["max_configurability_gain"] < 0.25
        assert summary["num_power_gated_configs"] >= 1

    def test_fig08_saturation_points(self):
        summary = run_figure(figure_id="fig08", fast=True).summary
        assert summary["chip_saturation_gflops_add"] == pytest.approx(330, rel=0.1)
        assert summary["chip_saturation_gflops_scale"] == pytest.approx(530, rel=0.1)
        assert summary["chip_saturation_gflops_triad"] == pytest.approx(670, rel=0.1)
        assert summary["unroll_gain_scale"] > summary["unroll_gain_add"]

    def test_fig08_intensity_split(self):
        summary = run_figure(figure_id="fig08", fast=True).summary
        assert summary["intensity_sat_util_add_gaudi"] == pytest.approx(0.5, abs=0.07)
        assert summary["intensity_sat_util_triad_gaudi"] == pytest.approx(0.99, abs=0.07)
        assert summary["intensity_sat_util_add_a100"] == pytest.approx(0.5, abs=0.07)

    def test_fig09_small_vector_gap(self):
        summary = run_figure(figure_id="fig09", fast=True).summary
        assert summary["gaudi_gather_util_large"] == pytest.approx(0.64, abs=0.08)
        assert summary["a100_gather_util_large"] == pytest.approx(0.72, abs=0.05)
        assert summary["small_vector_gap"] > 1.5

    def test_fig10_wins(self):
        summary = run_figure(figure_id="fig10", fast=True).summary
        assert summary["gaudi_wins_of_6_at_8_devices"] == 5.0
        assert summary["gaudi_busbw_scales_with_devices"] == 1.0
        assert summary["a100_allreduce_util_2dev"] > 4 * summary["gaudi_allreduce_util_2dev"]

    def test_fig11_recsys_deficit(self):
        summary = run_figure(figure_id="fig11", fast=True).summary
        assert summary["rm1_mean_speedup"] < 1.05
        assert summary["rm2_mean_speedup"] < 1.05
        assert summary["max_speedup"] > 1.2
        assert summary["rm2_min_speedup_small_vectors"] < 0.65

    def test_fig12_llm_speedups(self):
        summary = run_figure(figure_id="fig12", fast=True).summary
        assert 1.2 < summary["single_device_mean_speedup"] < 1.6
        assert summary["tp8_mean_speedup"] > summary["tp2_mean_speedup"]

    def test_fig13_energy(self):
        summary = run_figure(figure_id="fig13", fast=True).summary
        assert 1.25 < summary["single_device_mean_energy_efficiency"] < 1.7
        assert summary["multi_device_mean_power_ratio"] == pytest.approx(0.88, abs=0.08)

    def test_fig15_embedding(self):
        summary = run_figure(figure_id="fig15", fast=True).summary
        assert summary["batched_over_single_mean"] > 1.3
        assert 0.55 < summary["batched_peak_utilization"] < 0.75
        assert summary["batched_vs_a100_small_vectors"] < 0.6

    def test_fig17_vllm(self):
        summary = run_figure(figure_id="fig17", fast=True).summary
        assert 4.0 < summary["opt_over_base_mean"] < 9.0
        assert summary["opt_over_base_max_padding"] > 20
        assert 0.35 < summary["opt_vs_a100_mean"] < 0.65
        assert 0.8 < summary["e2e_throughput_ratio"] < 1.6
