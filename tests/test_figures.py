"""Figure/table regeneration harness (fast mode)."""

import pathlib

import pytest

from repro.figures import FIGURES, run_figure
from repro.figures.common import FigureResult, register_figure

_PAPER_RESULTS = pathlib.Path(__file__).resolve().parents[1] / "paper_results"

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


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_runs_and_is_well_formed(figure_id):
    result = run_figure(figure_id=figure_id, fast=True)
    assert isinstance(result, FigureResult)
    assert result.figure_id == figure_id
    assert result.rows
    assert result.summary
    assert result.text
    # paper_results/ is what examples/reproduce_paper.py writes; a
    # re-golden of any figure shows up as a diff of these files.
    golden = _PAPER_RESULTS / f"{figure_id}.txt"
    assert golden.read_text(encoding="utf-8") == result.text + "\n"


class TestFigureHeadlines:
    """The headline claims each figure carries; the bands live in
    ``repro.figures.report_md.TRACKED_CLAIMS`` (full grids)."""

    def test_fig04_gaudi_peak(self, assert_in_band):
        assert_in_band("fig04", "gaudi_peak_utilization_largest_square",
                       "gaudi_wins_all_square_shapes")

    def test_fig05_gaudi_utilization_advantage(self, assert_in_band):
        assert_in_band("fig05", "mean_square_utilization_delta")

    def test_fig07_configurability_gain(self, assert_in_band):
        assert_in_band("fig07", "max_configurability_gain", "num_power_gated_configs")

    def test_fig08_saturation_points(self, assert_in_band):
        assert_in_band("fig08", "chip_saturation_gflops_add", "chip_saturation_gflops_scale",
                       "chip_saturation_gflops_triad")

    def test_fig08_intensity_split(self, assert_in_band):
        assert_in_band("fig08", "intensity_sat_util_add_gaudi",
                       "intensity_sat_util_triad_gaudi", "intensity_sat_util_add_a100")

    def test_fig09_small_vector_gap(self, assert_in_band):
        assert_in_band("fig09", "gaudi_gather_util_large", "a100_gather_util_large",
                       "small_vector_gap")

    def test_fig10_wins(self, assert_in_band):
        assert_in_band("fig10", "gaudi_wins_of_6_at_8_devices",
                       "gaudi_busbw_scales_with_devices")

    def test_fig11_recsys_deficit(self, assert_in_band):
        assert_in_band("fig11", "rm1_mean_speedup", "rm2_mean_speedup", "max_speedup",
                       "rm2_min_speedup_small_vectors")

    def test_fig12_llm_speedups(self, assert_in_band):
        assert_in_band("fig12", "single_device_mean_speedup")

    def test_fig13_energy(self, assert_in_band):
        assert_in_band("fig13", "single_device_mean_energy_efficiency",
                       "multi_device_mean_power_ratio")

    def test_fig15_embedding(self, assert_in_band):
        assert_in_band("fig15", "batched_over_single_mean", "batched_peak_utilization",
                       "batched_vs_a100_small_vectors")

    def test_fig17_vllm(self, assert_in_band):
        assert_in_band("fig17", "opt_over_base_mean", "opt_over_base_max_padding",
                       "opt_vs_a100_mean", "e2e_throughput_ratio")


#: Fast-mode summaries of the figures the TPC scoreboard prices, as
#: ``float.hex`` strings.  Compared bit-for-bit so that any scoreboard
#: drift fails here, not only in the benchmark's golden digests.
_SCOREBOARD_PINS = {
    "fig08": {
        "chip_saturation_gflops_add": "0x1.56ef30207fe6dp+8",
        "chip_saturation_gflops_scale": "0x1.0a62f0d01a35ap+9",
        "chip_saturation_gflops_triad": "0x1.56ef30207fe6dp+9",
        "unroll_gain_add": "0x1.332b3b4ee123ep+0",
        "unroll_gain_scale": "0x1.9eada02b9db96p+0",
        "unroll_gain_triad": "0x1.1473c01d13d0ep+0",
        "intensity_sat_util_add_gaudi": "0x1.f84ab9d966236p-2",
        "intensity_sat_util_triad_gaudi": "0x1.f8c7755b7c22fp-1",
        "intensity_sat_util_add_a100": "0x1.0000000000000p-1",
        "intensity_sat_util_triad_a100": "0x1.0000000000000p+0",
    },
    "fig09": {
        "gaudi_gather_util_small": "0x1.b626c1c956e72p-4",
        "a100_gather_util_small": "0x1.eb851eb851eb9p-3",
        "gaudi_gather_util_large": "0x1.5e7519dc3f640p-1",
        "a100_gather_util_large": "0x1.70a3d70a3d70ap-1",
        "small_vector_gap": "0x1.1f2e8c84f885fp+1",
    },
}


@pytest.mark.parametrize("figure_id", sorted(_SCOREBOARD_PINS))
def test_scoreboard_figures_bit_exact(figure_id):
    summary = run_figure(figure_id=figure_id, fast=True).summary
    assert {key: float(value).hex() for key, value in summary.items()} == _SCOREBOARD_PINS[figure_id]
