"""Figure 17: PagedAttention and end-to-end vLLM serving.

(a) vLLM_opt vs vLLM_base PagedAttention speedup over sequence length x
batch (0 % padding); (b) the zero-padding sweep; (c) vLLM_opt vs the
A100 CUDA kernel; (d, e) end-to-end serving throughput and TTFT/TPOT
vs the maximum decode batch size on the Dynamic-Sonnet-like dataset.
Headline paper results: 7.4x average opt-over-base speedup (up to
55.7x with 90 % padding); ~45 % of A100's PagedAttention throughput;
comparable end-to-end throughput and SLO sensitivity.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.memo import CostCache
from repro.core.metrics import arithmetic_mean, geometric_mean
from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.paged_attention import (
    PagedAttentionConfig,
    a100_paged_attention,
    vllm_base_paged_attention,
    vllm_opt_paged_attention,
)
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, dynamic_sonnet_requests

_SEQ_LENS = (1024, 2048, 4096, 8192)
_BATCHES = (8, 16, 32, 64)
_PADDING_FRACTIONS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
_MAX_DECODE_BATCHES = (8, 16, 32, 64, 128, 192)
_NUM_REQUESTS = 96
_DATASET_SEED = 7

#: Panel (d, e) points shared by every run of this figure (and
#: ``headline``'s), keyed on the model's pricing key and the point.
_SERVE_CACHE = CostCache("figures.fig17.serve")


class ServePoint(NamedTuple):
    """The end-to-end numbers one panel (d, e) point plots."""

    throughput_tokens_per_s: float
    mean_ttft: float
    mean_tpot: float


def serve_point(
    model: LlamaCostModel,
    attention: DecodeAttention,
    max_decode_batch: int,
    num_requests: int,
) -> ServePoint:
    """Serve ``num_requests`` Dynamic-Sonnet requests (seed 7) on
    ``model``; looked up before the engine runs."""
    key = (model.pricing_key(), attention, max_decode_batch, num_requests)
    point = _SERVE_CACHE.get(key)
    if point is not None:
        return point
    engine = LlmServingEngine(model, attention, max_decode_batch=max_decode_batch)
    report = engine.run(dynamic_sonnet_requests(num_requests, seed=_DATASET_SEED))
    point = ServePoint(report.throughput_tokens_per_s, report.mean_ttft, report.mean_tpot)
    _SERVE_CACHE.put(key, point)
    return point


@register_figure("fig17")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    seqs = _SEQ_LENS[::2] if fast else _SEQ_LENS
    batches = _BATCHES[::2] if fast else _BATCHES
    paddings = (_PADDING_FRACTIONS[0], _PADDING_FRACTIONS[-1]) if fast else _PADDING_FRACTIONS
    decode_batches = _MAX_DECODE_BATCHES[::2] if fast else _MAX_DECODE_BATCHES
    num_requests = _NUM_REQUESTS // 2 if fast else _NUM_REQUESTS

    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    rows = []
    # (a) + (c): kernel-level grid at 0 % padding.
    for seq in seqs:
        for batch in batches:
            config = PagedAttentionConfig.uniform(batch, seq)
            base = vllm_base_paged_attention(config, gaudi.spec)
            opt = vllm_opt_paged_attention(config, gaudi.spec)
            cuda = a100_paged_attention(config, a100.spec)
            rows.append({
                "panel": "a", "seq": seq, "batch": batch, "padding": 0.0,
                "opt_over_base": base.time / opt.time,
                "opt_vs_a100": cuda.time / opt.time,
            })
    # (b) padding sweep at seq=4K, batch=32.
    for padding in paddings:
        config = _padded_config(32, 4096, padding)
        base = vllm_base_paged_attention(config, gaudi.spec)
        opt = vllm_opt_paged_attention(config, gaudi.spec)
        rows.append({
            "panel": "b", "seq": 4096, "batch": 32,
            "padding": config.padding_fraction,
            "opt_over_base": base.time / opt.time,
        })
    # (d, e): end-to-end serving on both devices.
    for max_batch in decode_batches:
        rg = serve_point(LlamaCostModel(LLAMA_3_1_8B, gaudi), DecodeAttention.PAGED_OPT,
                         max_batch, num_requests)
        ra = serve_point(LlamaCostModel(LLAMA_3_1_8B, a100), DecodeAttention.PAGED_CUDA,
                         max_batch, num_requests)
        rows.append({
            "panel": "de", "max_decode_batch": max_batch,
            "gaudi_throughput": rg.throughput_tokens_per_s,
            "a100_throughput": ra.throughput_tokens_per_s,
            "gaudi_ttft": rg.mean_ttft, "a100_ttft": ra.mean_ttft,
            "gaudi_tpot": rg.mean_tpot, "a100_tpot": ra.mean_tpot,
        })

    panel_a = [r for r in rows if r["panel"] == "a"]
    panel_b = sorted((r for r in rows if r["panel"] == "b"), key=lambda r: r["padding"])
    panel_de = [r for r in rows if r["panel"] == "de"]
    summary = {
        "opt_over_base_mean": arithmetic_mean([r["opt_over_base"] for r in panel_a]),
        "opt_over_base_max_padding": panel_b[-1]["opt_over_base"],
        "opt_over_base_padding_mean": arithmetic_mean(
            [r["opt_over_base"] for r in panel_b if r["padding"] > 0]
        ),
        "opt_vs_a100_mean": arithmetic_mean([r["opt_vs_a100"] for r in panel_a]),
        "e2e_throughput_ratio": geometric_mean(
            [r["gaudi_throughput"] / r["a100_throughput"] for r in panel_de]
        ),
        # With a zero-arrival backlog, a larger decode batch drains the
        # queue sooner (TTFT falls) while each token slows down (TPOT
        # rises) -- the SLO trade-off of Figure 17(e).
        "e2e_tpot_rises_with_batch": float(
            panel_de[-1]["gaudi_tpot"] > panel_de[0]["gaudi_tpot"]
        ),
    }
    text = render_table(
        ["Panel", "Key", "Value"],
        [
            ("a", f"seq={r['seq']} b={r['batch']}",
             f"opt/base {r['opt_over_base']:.2f}x, A100/opt {1 / r['opt_vs_a100']:.2f}x")
            for r in panel_a
        ]
        + [
            ("b", f"padding={r['padding']:.0%}", f"opt/base {r['opt_over_base']:.1f}x")
            for r in panel_b
        ]
        + [
            ("de", f"max_batch={r['max_decode_batch']}",
             f"G {r['gaudi_throughput']:.0f} tok/s (TTFT {r['gaudi_ttft']:.2f}s, "
             f"TPOT {r['gaudi_tpot'] * 1e3:.1f}ms) | "
             f"A {r['a100_throughput']:.0f} tok/s (TTFT {r['a100_ttft']:.2f}s, "
             f"TPOT {r['a100_tpot'] * 1e3:.1f}ms)")
            for r in panel_de
        ],
        title="Figure 17: PagedAttention and end-to-end vLLM serving",
    )
    return FigureResult(figure_id="fig17", title="vLLM case study",
                        rows=rows, summary=summary, text=text)


def _padded_config(batch: int, max_seq: int, padding: float) -> PagedAttentionConfig:
    """Build a batch whose BlockTable padding fraction is ~``padding``."""
    block = 128
    max_blocks = max_seq // block
    target_effectual = max(batch, int(round((1.0 - padding) * batch * max_blocks)))
    others = max(1, (target_effectual - max_blocks) // (batch - 1))
    seq_lens = [max_seq] + [others * block] * (batch - 1)
    return PagedAttentionConfig(
        batch=batch, seq_lens=seq_lens, q_heads=32, kv_heads=8, head_dim=128,
        block_size=block,
    )
