"""The paper-claims registry and the paper-vs-measured tables.

Every band the repo puts on a paper claim lives in :data:`TRACKED_CLAIMS`:
the paper's value, the figure summary key that measures it, and the
accepted band.  Claims are evaluated on the full parameter grids.
``python -m repro figures --markdown`` (or :func:`experiments_markdown`)
renders the per-figure tables that EXPERIMENTS.md carries verbatim
between its ``<!-- claims:begin -->`` and ``<!-- claims:end -->``
markers; the test suite fails when a claim leaves its band or the
committed block differs from a live run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.figures.common import FigureResult, run_figure

INF = math.inf

#: ``fmt`` of a 0/1 summary flag, rendered as yes/no.
_FLAG = "yes/no"
_PCT = "{:.1%}"
_X = "{:.2f}×"


@dataclass(frozen=True)
class TrackedClaim:
    """One paper claim tracked against the model."""

    figure_id: str
    summary_key: str
    description: str
    #: The paper's number, or its wording where it states none.
    paper_value: Union[float, str]
    #: Accepted closed band for the measured value.
    band: Tuple[float, float]
    #: ``str.format`` pattern for paper, measured and band values.
    fmt: str = _X

    def check(self, measured: float) -> bool:
        low, high = self.band
        return low <= measured <= high

    def measured(self, results: Mapping[str, FigureResult]) -> float:
        return results[self.figure_id].summary[self.summary_key]

    def log_error(self, measured: float) -> Optional[float]:
        """Signed ``ln(measured / paper)``; None without a paper number."""
        if isinstance(self.paper_value, str):
            return None
        return math.log(measured / self.paper_value)

    def render(self, value: float) -> str:
        if self.fmt == _FLAG:
            return "yes" if value else "no"
        return self.fmt.format(value)

    def band_text(self) -> str:
        low, high = self.band
        if low == high:
            return f"= {self.render(low)}"
        if high == INF:
            return f"≥ {self.render(low)}"
        if low == -INF:
            return f"≤ {self.render(high)}"
        return f"{self.render(low)} – {self.render(high)}"


#: Every paper claim the repo checks, in EXPERIMENTS.md table order.
TRACKED_CLAIMS: Tuple[TrackedClaim, ...] = (
    TrackedClaim("table1", "matrix_tflops_ratio", "Matrix TFLOPS ratio (Gaudi-2 / A100)", 1.4,
                 (432 / 312, 432 / 312)),
    TrackedClaim("table1", "vector_tflops_ratio", "Vector TFLOPS ratio", 0.3, (11 / 39, 11 / 39)),
    TrackedClaim("table1", "bandwidth_ratio", "HBM bandwidth ratio", 1.2, (1.225, 1.225)),
    TrackedClaim("table1", "power_ratio", "Power (TDP) ratio", 1.5, (1.5, 1.5)),

    TrackedClaim("fig04", "gaudi_peak_tflops_largest_square",
                 "Gaudi-2 peak at the largest square GEMM", 429.0, (424.0, 436.0), "{:.1f} TFLOPS"),
    TrackedClaim("fig04", "gaudi_peak_utilization_largest_square",
                 "Gaudi-2 peak utilization at the largest square GEMM", 0.993, (0.99, 1.0), _PCT),
    TrackedClaim("fig04", "gaudi_wins_all_square_shapes", "Gaudi-2 wins every square shape", "yes",
                 (1.0, 1.0), _FLAG),

    TrackedClaim("fig05", "mean_square_utilization_delta",
                 "Mean square-GEMM utilization delta, Gaudi − A100 (points)", 0.045, (0.0, 0.25),
                 "{:+.1%}"),
    TrackedClaim("fig05", "max_square_utilization_delta", "Max square-GEMM utilization delta", 0.32,
                 (0.1, 0.35), "{:+.1%}"),

    TrackedClaim("fig07", "max_configurability_gain",
                 "Utilization gain, configurable vs fixed 256×256×2 array (points)", 0.15,
                 (0.08, 0.22), _PCT),
    TrackedClaim("fig07", "num_power_gated_configs", "Power-gated configurations for small (M, N)",
                 "appear", (1.0, INF), "{:.0f}"),
    TrackedClaim("fig07", "distinct_geometries", "Distinct geometries across the (M, N) grid",
                 "several", (6.0, INF), "{:.0f}"),

    TrackedClaim("fig08", "chip_saturation_gflops_add", "Chip saturation, ADD", 330.0,
                 (300.0, 363.0), "{:.0f} GFLOPS"),
    TrackedClaim("fig08", "chip_saturation_gflops_scale", "Chip saturation, SCALE", 530.0,
                 (477.0, 583.0), "{:.0f} GFLOPS"),
    TrackedClaim("fig08", "chip_saturation_gflops_triad", "Chip saturation, TRIAD", 670.0,
                 (620.0, 737.0), "{:.0f} GFLOPS"),
    TrackedClaim("fig08", "unroll_gain_scale", "Unrolling gain, SCALE", "remarkable", (1.4, 2.0)),
    TrackedClaim("fig08", "unroll_gain_add", "Unrolling gain, ADD", "slight", (1.0, 1.3)),
    TrackedClaim("fig08", "unroll_gain_triad", "Unrolling gain, TRIAD", "slight", (1.0, 1.3)),
    TrackedClaim("fig08", "intensity_sat_util_add_gaudi",
                 "Intensity-sweep saturation, ADD, Gaudi-2", 0.50, (0.43, 0.57), _PCT),
    TrackedClaim("fig08", "intensity_sat_util_triad_gaudi",
                 "Intensity-sweep saturation, TRIAD, Gaudi-2", 0.99, (0.92, 1.06), _PCT),
    TrackedClaim("fig08", "intensity_sat_util_add_a100", "Intensity-sweep saturation, ADD, A100",
                 0.50, (0.43, 0.57), _PCT),
    TrackedClaim("fig08", "intensity_sat_util_triad_a100",
                 "Intensity-sweep saturation, TRIAD, A100", 0.98, (0.91, 1.05), _PCT),

    TrackedClaim("fig09", "gaudi_gather_util_large", "Gaudi-2 gather utilization, ≥256 B", 0.64,
                 (0.58, 0.71), _PCT),
    TrackedClaim("fig09", "a100_gather_util_large", "A100 gather utilization, ≥256 B", 0.72,
                 (0.67, 0.77), _PCT),
    TrackedClaim("fig09", "gaudi_gather_util_small", "Gaudi-2 gather utilization, ≤128 B", 0.15,
                 (0.10, 0.20), _PCT),
    TrackedClaim("fig09", "a100_gather_util_small", "A100 gather utilization, ≤128 B", 0.36,
                 (0.29, 0.43), _PCT),
    TrackedClaim("fig09", "small_vector_gap", "Small-vector gap (A100 / Gaudi-2)", 2.4, (1.6, 3.2)),

    TrackedClaim("fig10", "gaudi_wins_of_6_at_8_devices", "Collectives Gaudi-2 wins at 8 devices",
                 5.0, (5.0, 5.0), "{:.0f} of 6"),
    TrackedClaim("fig10", "gaudi_busbw_scales_with_devices",
                 "Gaudi-2 busBW declines with fewer devices", "almost linearly", (1.0, 1.0), _FLAG),
    TrackedClaim("fig10", "gaudi_allreduce_util_2dev",
                 "Gaudi-2 AllReduce bus utilization, 2 devices", "—", (0.0, 0.2), _PCT),
    TrackedClaim("fig10", "gaudi_allreduce_util_8dev",
                 "Gaudi-2 AllReduce bus utilization, 8 devices", "—", (0.5, 1.0), _PCT),
    TrackedClaim("fig10", "a100_allreduce_util_2dev", "A100 AllReduce bus utilization, 2 devices",
                 "flat", (0.5, INF), _PCT),
    TrackedClaim("fig10", "a100_allreduce_util_8dev", "A100 AllReduce bus utilization, 8 devices",
                 "flat", (0.5, 1.0), _PCT),

    TrackedClaim("fig11", "rm1_mean_speedup", "RM1 mean speedup", 0.78, (-INF, 1.0)),
    TrackedClaim("fig11", "rm2_mean_speedup", "RM2 mean speedup", 0.82, (-INF, 1.0)),
    TrackedClaim("fig11", "max_speedup", "Max speedup (wide vectors)", 1.36, (1.2, 1.5)),
    TrackedClaim("fig11", "rm2_min_speedup_small_vectors", "Worst case (RM2, small vectors)", 0.30,
                 (-INF, 0.65)),
    TrackedClaim("fig11", "mean_power_ratio", "Mean power ratio (Gaudi-2 / A100)", 1.12,
                 (0.9, 1.25)),
    TrackedClaim("fig11", "mean_energy_efficiency", "Mean energy efficiency", 0.72, (-INF, 1.0)),

    TrackedClaim("fig12", "single_device_mean_speedup", "8B single-device mean speedup", 1.47,
                 (1.25, 1.6)),
    TrackedClaim("fig12", "single_device_max_speedup", "8B single-device max speedup", 1.70,
                 (1.3, INF)),
    TrackedClaim("fig12", "tp2_mean_speedup", "70B TP2 mean speedup", 1.29, (1.0, 1.6)),
    TrackedClaim("fig12", "tp4_mean_speedup", "70B TP4 mean speedup", 1.32, (1.0, 1.6)),
    TrackedClaim("fig12", "tp8_mean_speedup", "70B TP8 mean speedup", 1.35, (1.0, 1.6)),

    TrackedClaim("fig13", "single_device_mean_energy_efficiency",
                 "Single-device mean energy efficiency", 1.48, (1.3, 1.7)),
    TrackedClaim("fig13", "single_device_mean_power_ratio", "Single-device power ratio", 1.01,
                 (0.88, 1.12)),
    TrackedClaim("fig13", "multi_device_mean_power_ratio", "Multi-device power ratio", 0.88,
                 (0.8, 0.96)),
    TrackedClaim("fig13", "multi_device_mean_energy_efficiency", "Multi-device energy efficiency",
                 "1.48–1.56×", (1.3, INF)),

    TrackedClaim("fig15", "batched_mean_utilization", "BatchedTable mean utilization", 0.342,
                 (0.25, 0.55), _PCT),
    TrackedClaim("fig15", "batched_peak_utilization", "BatchedTable peak utilization", 0.705,
                 (0.63, 0.75), _PCT),
    TrackedClaim("fig15", "batched_over_single_mean", "BatchedTable over SingleTable (mean)", 1.52,
                 (1.4, INF)),
    TrackedClaim("fig15", "batched_vs_a100_large_vectors", "BatchedTable vs A100, ≥256 B", 0.95,
                 (0.75, 1.05), _PCT),
    TrackedClaim("fig15", "batched_vs_a100_small_vectors", "BatchedTable vs A100, <256 B", 0.47,
                 (0.32, 0.6), _PCT),
    TrackedClaim("fig15", "batched_small_vector_utilization",
                 "Small-vector utilization, BatchedTable", 0.12, (0.08, 0.3), _PCT),
    TrackedClaim("fig15", "a100_small_vector_utilization", "Small-vector utilization, A100 FBGEMM",
                 0.253, (0.2, 0.6), _PCT),

    TrackedClaim("fig17", "opt_over_base_mean", "vLLM_opt over vLLM_base, 0 % padding (mean)", 7.4,
                 (4.5, 9.0), "{:.1f}×"),
    TrackedClaim("fig17", "opt_over_base_max_padding", "vLLM_opt over vLLM_base with padding (max)",
                 55.7, (30.0, 70.0), "{:.1f}×"),
    TrackedClaim("fig17", "opt_over_base_padding_mean",
                 "vLLM_opt over vLLM_base, padding-sweep mean", 21.0, (12.0, 30.0), "{:.1f}×"),
    TrackedClaim("fig17", "opt_vs_a100_mean", "vLLM_opt vs A100 PagedAttention kernel", 0.45,
                 (0.35, 0.57), _PCT),
    TrackedClaim("fig17", "e2e_throughput_ratio", "End-to-end serving throughput vs A100", 1.01,
                 (0.8, 1.6), _PCT),
    TrackedClaim("fig17", "e2e_tpot_rises_with_batch", "TPOT grows with max decode batch", "yes",
                 (1.0, 1.0), _FLAG),

    TrackedClaim("table2", "num_microbenchmarks", "Microbenchmarks in the suite", 4.0, (4.0, 4.0),
                 "{:.0f}"),

    TrackedClaim("headline", "sdk_embedding_vs_a100", "SDK embedding operator vs FBGEMM", 0.37,
                 (0.15, 0.55), _PCT),
    TrackedClaim("headline", "custom_single_over_sdk", "Custom SingleTable over the SDK operator",
                 1.6, (1.3, 3.0)),
    TrackedClaim("headline", "recsys_mean_speedup", "RecSys mean speedup (RM1, RM2)", 0.80,
                 (0.6, 1.0)),
)


def collect_measurements() -> Dict[str, FigureResult]:
    """Full-grid results of every figure a tracked claim reads."""
    figure_ids = dict.fromkeys(claim.figure_id for claim in TRACKED_CLAIMS)
    return {figure_id: run_figure(figure_id=figure_id, fast=False)
            for figure_id in figure_ids}


def mean_abs_log_error(results: Mapping[str, FigureResult]) -> float:
    """Mean ``|ln(measured / paper)|`` over claims with a paper number."""
    errors = [claim.log_error(claim.measured(results)) for claim in TRACKED_CLAIMS]
    numeric = [abs(error) for error in errors if error is not None]
    return sum(numeric) / len(numeric)


def experiments_markdown(results: Mapping[str, FigureResult]) -> str:
    """The per-figure paper-vs-measured tables as markdown."""
    lines: List[str] = []
    figure_id = None
    for claim in TRACKED_CLAIMS:
        if claim.figure_id != figure_id:
            figure_id = claim.figure_id
            if lines:
                lines.append("")
            lines += [
                f"### {results[figure_id].title} (`{figure_id}`)",
                "",
                "| Claim | Paper | Measured | Band | ln(measured/paper) | In band |",
                "|---|---|---|---|---|---|",
            ]
        value = claim.measured(results)
        paper = claim.paper_value
        error = claim.log_error(value)
        lines.append(
            f"| {claim.description} "
            f"| {paper if isinstance(paper, str) else claim.render(paper)} "
            f"| {claim.render(value)} | {claim.band_text()} "
            f"| {'—' if error is None else f'{error:+.3f}'} "
            f"| {'yes' if claim.check(value) else '**NO**'} |"
        )
    numeric = sum(not isinstance(claim.paper_value, str) for claim in TRACKED_CLAIMS)
    lines += [
        "",
        f"Mean |ln(measured/paper)| over the {numeric} claims with a paper "
        f"number: {mean_abs_log_error(results):.3f}.",
    ]
    return "\n".join(lines) + "\n"


def all_claims_in_band(results: Mapping[str, FigureResult]) -> bool:
    """True when every tracked claim sits inside its band."""
    return all(claim.check(claim.measured(results)) for claim in TRACKED_CLAIMS)
