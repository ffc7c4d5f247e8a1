"""Figure 11: RecSys (RM1/RM2) single-device performance and energy.

Gaudi-2's speedup (a) and energy-efficiency improvement (b) over A100,
swept across batch sizes and embedding vector sizes.  Headline paper
results: average slowdowns of 22 % (RM1) and 18 % (RM2); speedups up
to 1.36x at wide vectors + large batches; up to 70 % loss on RM2 with
sub-256 B vectors; ~28 % average energy-efficiency deficit.
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_heatmap
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.models.dlrm import DlrmCostModel, RM1_CONFIG, RM2_CONFIG

_DIMS = (16, 32, 64, 128, 256)         # fp32 elements: 64 B .. 1 KB vectors
_BATCHES = (256, 1024, 4096, 16384)


@register_figure("fig11")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    dims = _DIMS[::2] if fast else _DIMS
    batches = _BATCHES[::2] if fast else _BATCHES

    rows = []
    for base in (RM1_CONFIG, RM2_CONFIG):
        for dim in dims:
            config = base.with_embedding_dim(dim)
            for batch in batches:
                fg = DlrmCostModel(config, gaudi).forward(batch)
                fa = DlrmCostModel(config, a100).forward(batch)
                rows.append({
                    "model": base.name,
                    "embedding_dim": dim,
                    "vector_bytes": dim * 4,
                    "batch": batch,
                    "speedup": fa.time / fg.time,
                    "power_ratio": fg.average_power / fa.average_power,
                    "energy_efficiency": fa.energy_joules / fg.energy_joules,
                })

    def grid(model, key):
        return [
            [next(r[key] for r in rows
                  if r["model"] == model and r["embedding_dim"] == d and r["batch"] == b)
             for b in batches]
            for d in dims
        ]

    text = "\n\n".join(
        render_heatmap(
            grid(model, key), [d * 4 for d in dims], list(batches),
            title=f"Figure 11: {model} {label} (rows=vector bytes, cols=batch)",
        )
        for model in ("RM1", "RM2")
        for key, label in (("speedup", "speedup over A100"),
                           ("energy_efficiency", "energy-efficiency vs A100"))
    )
    rm1 = [r for r in rows if r["model"] == "RM1"]
    rm2 = [r for r in rows if r["model"] == "RM2"]
    small_rm2 = [r["speedup"] for r in rm2 if r["vector_bytes"] < 256]
    summary = {
        "rm1_mean_speedup": arithmetic_mean([r["speedup"] for r in rm1]),
        "rm2_mean_speedup": arithmetic_mean([r["speedup"] for r in rm2]),
        "max_speedup": max(r["speedup"] for r in rows),
        "rm2_min_speedup_small_vectors": min(small_rm2),
        "mean_energy_efficiency": arithmetic_mean([r["energy_efficiency"] for r in rows]),
        "mean_power_ratio": arithmetic_mean([r["power_ratio"] for r in rows]),
    }
    return FigureResult(figure_id="fig11", title="RecSys serving",
                        rows=rows, summary=summary, text=text)
