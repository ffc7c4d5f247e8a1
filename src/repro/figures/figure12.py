"""Figure 12: LLM serving speedup heatmaps + latency breakdown.

(a) Gaudi-2's speedup over A100 for Llama-3.1-8B on one device and
Llama-3.1-70B on 2/4/8 devices (tensor parallelism), over batch size x
output length; (b) prefill/decode latency breakdown for the 8B model.
Headline paper results: 1.47x average single-device speedup (max
1.70x); 1.29x/1.32x/1.35x for 2/4/8 devices, increasing with device
count.
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_heatmap, render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.models.llama import LLAMA_3_1_70B, LLAMA_3_1_8B, LlamaCostModel
from repro.models.tensor_parallel import TensorParallelConfig

_BATCHES = (1, 4, 16, 64)
_OUTPUT_LENS = (25, 50, 100, 200, 400)
_INPUT_LEN = 100
_TP_DEGREES = (2, 4, 8)


@register_figure("fig12")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    batches = _BATCHES[::2] if fast else _BATCHES
    outputs = _OUTPUT_LENS[::2] if fast else _OUTPUT_LENS
    tp_degrees = (_TP_DEGREES[0], _TP_DEGREES[-1]) if fast else _TP_DEGREES

    rows = []
    # (a) single-device 8B
    for batch in batches:
        for out in outputs:
            eg = LlamaCostModel(LLAMA_3_1_8B, gaudi).generate(batch, _INPUT_LEN, out)
            ea = LlamaCostModel(LLAMA_3_1_8B, a100).generate(batch, _INPUT_LEN, out)
            rows.append({
                "model": "8B", "tp": 1, "batch": batch, "output_len": out,
                "speedup": ea.total_time / eg.total_time,
                "gaudi_prefill": eg.prefill_time, "gaudi_decode": eg.decode_time,
                "a100_prefill": ea.prefill_time, "a100_decode": ea.decode_time,
            })
    # (a) multi-device 70B
    for tp in tp_degrees:
        for batch in batches:
            for out in outputs:
                mg = LlamaCostModel(LLAMA_3_1_70B, gaudi,
                                    TensorParallelConfig.for_device(gaudi, tp))
                ma = LlamaCostModel(LLAMA_3_1_70B, a100,
                                    TensorParallelConfig.for_device(a100, tp))
                eg, ea = mg.generate(batch, _INPUT_LEN, out), ma.generate(batch, _INPUT_LEN, out)
                rows.append({
                    "model": "70B", "tp": tp, "batch": batch, "output_len": out,
                    "speedup": ea.total_time / eg.total_time,
                    "gaudi_prefill": eg.prefill_time, "gaudi_decode": eg.decode_time,
                    "a100_prefill": ea.prefill_time, "a100_decode": ea.decode_time,
                })

    single = [r["speedup"] for r in rows if r["tp"] == 1]
    summary = {
        "single_device_mean_speedup": arithmetic_mean(single),
        "single_device_max_speedup": max(single),
    }
    for tp in tp_degrees:
        multi = [r["speedup"] for r in rows if r["tp"] == tp and r["model"] == "70B"]
        summary[f"tp{tp}_mean_speedup"] = arithmetic_mean(multi)

    grid = [
        [next(r["speedup"] for r in rows
              if r["tp"] == 1 and r["batch"] == b and r["output_len"] == o)
         for o in outputs]
        for b in batches
    ]
    heatmap = render_heatmap(
        grid, list(batches), list(outputs),
        title="Figure 12(a): 8B single-device speedup (rows=batch, cols=output len)",
    )
    breakdown_rows = [
        (r["batch"], r["output_len"],
         f"{r['gaudi_prefill'] * 1e3:.1f}", f"{r['gaudi_decode'] * 1e3:.1f}",
         f"{r['a100_prefill'] * 1e3:.1f}", f"{r['a100_decode'] * 1e3:.1f}")
        for r in rows if r["tp"] == 1 and r["batch"] == batches[-1]
    ]
    breakdown = render_table(
        ["Batch", "Out len", "G prefill (ms)", "G decode (ms)",
         "A prefill (ms)", "A decode (ms)"],
        breakdown_rows,
        title="Figure 12(b): prefill/decode latency breakdown (8B)",
    )
    return FigureResult(figure_id="fig12", title="LLM serving speedup",
                        rows=rows, summary=summary,
                        text=heatmap + "\n\n" + breakdown)
