#!/usr/bin/env python3
"""LLM serving scenario: Llama-3.1-8B behind a vLLM-style engine.

Reproduces the Section 4.2 serving setup on both platforms: a
Dynamic-Sonnet-like request mix through the continuous-batching engine
with PagedAttention, sweeping the maximum decode batch size
(Figure 17(d, e)), plus a multi-device 70B comparison (Figure 12).

Run with::

    python examples/llm_serving.py
"""

from repro import get_backend
from repro.core.report import render_table
from repro.models.llama import (
    LLAMA_3_1_70B,
    LLAMA_3_1_8B,
    DecodeAttention,
    LlamaCostModel,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.serving import LlmServingEngine, dynamic_sonnet_requests


def serve_8b() -> None:
    gaudi, a100 = get_backend("gaudi2"), get_backend("a100")
    rows = []
    for max_batch in (8, 32, 128):
        gaudi_report = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, gaudi),
            DecodeAttention.PAGED_OPT,
            max_decode_batch=max_batch,
        ).run(dynamic_sonnet_requests(64, seed=0))
        a100_report = LlmServingEngine(
            LlamaCostModel(LLAMA_3_1_8B, a100),
            DecodeAttention.PAGED_CUDA,
            max_decode_batch=max_batch,
        ).run(dynamic_sonnet_requests(64, seed=0))
        for report in (gaudi_report, a100_report):
            rows.append((
                report.device,
                max_batch,
                f"{report.throughput_tokens_per_s:.0f}",
                f"{report.mean_ttft:.2f}",
                f"{report.mean_tpot * 1e3:.1f}",
                f"{report.average_power:.0f}",
                f"{report.energy_per_token * 1e3:.1f}",
            ))
    print(render_table(
        ["Device", "Max batch", "tok/s", "TTFT (s)", "TPOT (ms)",
         "Power (W)", "mJ/token"],
        rows,
        title="Llama-3.1-8B vLLM-style serving, Dynamic-Sonnet-like mix",
    ))
    print()


def serve_70b_multi_device() -> None:
    gaudi, a100 = get_backend("gaudi2"), get_backend("a100")
    rows = []
    for tp in (2, 4, 8):
        gaudi_est = LlamaCostModel(
            LLAMA_3_1_70B, gaudi, TensorParallelConfig.for_device(gaudi, tp)
        ).generate(batch=32, input_len=100, output_len=100)
        a100_est = LlamaCostModel(
            LLAMA_3_1_70B, a100, TensorParallelConfig.for_device(a100, tp)
        ).generate(batch=32, input_len=100, output_len=100)
        rows.append((
            f"TP{tp}",
            f"{gaudi_est.tokens_per_second:.0f}",
            f"{a100_est.tokens_per_second:.0f}",
            f"{a100_est.total_time / gaudi_est.total_time:.2f}x",
            f"{a100_est.energy_joules / gaudi_est.energy_joules:.2f}x",
        ))
    print(render_table(
        ["Devices", "Gaudi tok/s", "A100 tok/s", "Speedup", "Energy-eff"],
        rows,
        title="Llama-3.1-70B multi-device serving (batch 32, 100->100 tokens)",
    ))


if __name__ == "__main__":
    serve_8b()
    serve_70b_multi_device()
