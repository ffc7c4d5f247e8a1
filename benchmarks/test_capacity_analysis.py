"""The Section 4.2 motivation, as a bench: static vs paged KV capacity.

vLLM's pitch -- and the reason the paper invests in Gaudi
PagedAttention -- is that variable-length requests fragment a
statically pre-allocated KV cache, capping batch size.  This bench
quantifies the capacity multiplier on both devices' HBM budgets.
"""

from repro.core.report import render_table
from repro.hw.backend import get_backend
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.serving import compare_capacity
from repro.serving.dataset import dynamic_sonnet_requests


def _capacity_rows():
    rows = []
    requests = dynamic_sonnet_requests(8192, seed=11)
    for device_name in ("gaudi2", "a100"):
        device = get_backend(device_name)
        model = LlamaCostModel(LLAMA_3_1_8B, device)
        report = compare_capacity(LLAMA_3_1_8B, model, requests, max_model_len=4096)
        rows.append((
            device.name,
            f"{report.kv_pool_tokens / 1e6:.2f}M",
            report.static_capacity,
            report.paged_capacity,
            f"{report.capacity_gain:.1f}x",
        ))
    return rows


def test_capacity_static_vs_paged(benchmark, results_dir):
    rows = benchmark.pedantic(_capacity_rows, rounds=1, iterations=1)
    text = render_table(
        ["Device", "KV pool (tokens)", "Static slots", "Paged requests", "Gain"],
        rows,
        title="Section 4.2 motivation: static pre-allocation vs PagedAttention "
              "(Llama-3.1-8B, Dynamic-Sonnet-like mix, max_model_len=4096)",
    )
    (results_dir / "capacity_analysis.txt").write_text(text + "\n")
    print("\n" + text)
    for row in rows:
        gain = float(row[4][:-1])
        assert gain > 2.0  # paged fits several times more requests
    # Gaudi's 96 GB HBM holds more KV than the A100's 80 GB.
    assert rows[0][3] > rows[1][3]
