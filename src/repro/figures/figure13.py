"""Figure 13: LLM serving energy-efficiency heatmaps.

Same sweeps as Figure 12 but reporting Gaudi-2's energy-efficiency
improvement over A100.  Headline paper results: ~1.48x single-device;
1.48x/1.51x/1.56x for 2/4/8 devices; Gaudi draws about 88 % of A100's
power in multi-device serving despite its 1.5x TDP.
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_heatmap
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.models.llama import LLAMA_3_1_70B, LLAMA_3_1_8B, LlamaCostModel
from repro.models.tensor_parallel import TensorParallelConfig

_BATCHES = (1, 4, 16, 64)
_OUTPUT_LENS = (25, 100, 400)
_INPUT_LEN = 100
_TP_DEGREES = (2, 4, 8)


@register_figure("fig13")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    batches = _BATCHES[::2] if fast else _BATCHES
    outputs = (_OUTPUT_LENS[0], _OUTPUT_LENS[-1]) if fast else _OUTPUT_LENS
    tp_degrees = (_TP_DEGREES[0], _TP_DEGREES[-1]) if fast else _TP_DEGREES

    rows = []
    for tp, model_cfg in [(1, LLAMA_3_1_8B)] + [(t, LLAMA_3_1_70B) for t in tp_degrees]:
        for batch in batches:
            for out in outputs:
                tpg = TensorParallelConfig.for_device(gaudi, tp)
                tpa = TensorParallelConfig.for_device(a100, tp)
                eg = LlamaCostModel(model_cfg, gaudi, tpg).generate(batch, _INPUT_LEN, out)
                ea = LlamaCostModel(model_cfg, a100, tpa).generate(batch, _INPUT_LEN, out)
                rows.append({
                    "model": model_cfg.name, "tp": tp, "batch": batch, "output_len": out,
                    "gaudi_power": eg.average_power,
                    "a100_power": ea.average_power,
                    "power_ratio": eg.average_power / ea.average_power,
                    "energy_efficiency": ea.energy_joules / eg.energy_joules,
                })

    summary = {}
    single = [r for r in rows if r["tp"] == 1]
    summary["single_device_mean_energy_efficiency"] = arithmetic_mean(
        [r["energy_efficiency"] for r in single]
    )
    summary["single_device_mean_power_ratio"] = arithmetic_mean(
        [r["power_ratio"] for r in single]
    )
    multi = [r for r in rows if r["tp"] > 1]
    summary["multi_device_mean_energy_efficiency"] = arithmetic_mean(
        [r["energy_efficiency"] for r in multi]
    )
    summary["multi_device_mean_power_ratio"] = arithmetic_mean(
        [r["power_ratio"] for r in multi]
    )

    grid = [
        [next(r["energy_efficiency"] for r in single
              if r["batch"] == b and r["output_len"] == o)
         for o in outputs]
        for b in batches
    ]
    text = render_heatmap(
        grid, list(batches), list(outputs),
        title="Figure 13: 8B single-device energy-efficiency vs A100 "
              "(rows=batch, cols=output len)",
    )
    return FigureResult(figure_id="fig13", title="LLM energy efficiency",
                        rows=rows, summary=summary, text=text)
