"""Headline scalar claims from the abstract and Sections 3.5/4.1/4.2.

A single harness gathering the paper's quotable numbers so tests and
EXPERIMENTS.md can track them in one place:

* SDK embedding operator reaches ~37 % of FBGEMM (Section 3.5 fn. 2);
* the custom SingleTable beats the SDK operator by ~1.6x;
* BatchedTable reaches ~95 % of A100 for >=256 B vectors, ~47 % below;
* vLLM_opt beats vLLM_base by ~7.4x (0 % padding) / up to ~55.7x;
* vLLM_opt reaches ~45 % of A100's PagedAttention;
* end-to-end: RecSys ~20 % slower / ~28 % less energy-efficient;
  LLM ~1.47x faster / ~48 % more energy-efficient (single device).
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure, run_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.embedding import (
    EmbeddingConfig,
    GaudiSdkSingleTable,
    GaudiSingleTable,
    A100Fbgemm,
)
from repro.models.dlrm import RM2_CONFIG

_BATCHES = (1024, 4096, 16384)
_DIMS = (64, 128)


@register_figure("headline")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this table's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2).spec, get_backend(A100).spec
    sdk, single, fbgemm = GaudiSdkSingleTable(gaudi), GaudiSingleTable(gaudi), A100Fbgemm(a100)
    sdk_vs_a100, single_vs_sdk = [], []
    for dim in _DIMS:
        for batch in _BATCHES:
            config = EmbeddingConfig(
                num_tables=RM2_CONFIG.num_tables,
                rows_per_table=RM2_CONFIG.rows_per_table,
                embedding_dim=dim,
                pooling=RM2_CONFIG.pooling,
                batch_size=batch,
            )
            t_sdk = sdk.run(config).time
            t_single = single.run(config).time
            t_a100 = fbgemm.run(config).time
            sdk_vs_a100.append(t_a100 / t_sdk)
            single_vs_sdk.append(t_sdk / t_single)

    fig15 = run_figure(figure_id="fig15", fast=fast)
    fig17 = run_figure(figure_id="fig17", fast=fast)
    fig12 = run_figure(figure_id="fig12", fast=fast)
    fig13 = run_figure(figure_id="fig13", fast=fast)
    fig11 = run_figure(figure_id="fig11", fast=fast)

    summary = {
        "sdk_embedding_vs_a100": arithmetic_mean(sdk_vs_a100),
        "custom_single_over_sdk": arithmetic_mean(single_vs_sdk),
        "batched_vs_a100_large_vectors": fig15.summary["batched_vs_a100_large_vectors"],
        "batched_vs_a100_small_vectors": fig15.summary["batched_vs_a100_small_vectors"],
        "vllm_opt_over_base": fig17.summary["opt_over_base_mean"],
        "vllm_opt_over_base_max": fig17.summary["opt_over_base_max_padding"],
        "vllm_opt_vs_a100_kernel": fig17.summary["opt_vs_a100_mean"],
        "vllm_e2e_throughput_ratio": fig17.summary["e2e_throughput_ratio"],
        "llm_single_device_speedup": fig12.summary["single_device_mean_speedup"],
        "llm_single_device_energy_eff": fig13.summary["single_device_mean_energy_efficiency"],
        "recsys_mean_speedup": arithmetic_mean(
            [fig11.summary["rm1_mean_speedup"], fig11.summary["rm2_mean_speedup"]]
        ),
        "recsys_mean_energy_eff": fig11.summary["mean_energy_efficiency"],
    }
    paper = {
        "sdk_embedding_vs_a100": 0.37,
        "custom_single_over_sdk": 1.60,
        "batched_vs_a100_large_vectors": 0.95,
        "batched_vs_a100_small_vectors": 0.47,
        "vllm_opt_over_base": 7.4,
        "vllm_opt_over_base_max": 55.7,
        "vllm_opt_vs_a100_kernel": 0.45,
        "vllm_e2e_throughput_ratio": 1.01,
        "llm_single_device_speedup": 1.47,
        "llm_single_device_energy_eff": 1.48,
        "recsys_mean_speedup": 0.80,
        "recsys_mean_energy_eff": 0.72,
    }
    rows = [
        {"claim": key, "measured": summary[key], "paper": paper[key]}
        for key in summary
    ]
    text = render_table(
        ["Claim", "Measured", "Paper"],
        [(r["claim"], f"{r['measured']:.2f}", f"{r['paper']:.2f}") for r in rows],
        title="Headline claims: measured vs paper",
    )
    return FigureResult(figure_id="headline", title="Headline claims",
                        rows=rows, summary=summary, text=text)
