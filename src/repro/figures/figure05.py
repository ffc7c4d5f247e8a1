"""Figure 5: GEMM compute-utilization heatmaps.

(a) square-shaped sweeps (M=K=N) and (b) irregularly-shaped sweeps
(N fixed at 16, M and K swept).  Headline paper result: Gaudi-2
averages 4.5 pp higher compute utilization than A100, with the largest
gap at M=K=N=2048.
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_heatmap
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.gemm import run_gemm

_SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384)
_IRREGULAR_N = 16


@register_figure("fig05")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    sizes = _SIZES[::2] if fast else _SIZES

    rows = []
    for device in (gaudi, a100):
        for s in sizes:
            square = run_gemm(device=device, m=s, k=s, n=s)
            rows.append(
                {"device": device.name, "shape": "square", "m": s, "k": s, "n": s,
                 "utilization": square.utilization}
            )
        for m in sizes:
            for k in sizes:
                irregular = run_gemm(device=device, m=m, k=k, n=_IRREGULAR_N)
                rows.append(
                    {"device": device.name, "shape": "irregular", "m": m, "k": k,
                     "n": _IRREGULAR_N, "utilization": irregular.utilization}
                )

    gaudi_sq = [r["utilization"] for r in rows if r["device"] == "Gaudi-2" and r["shape"] == "square"]
    a100_sq = [r["utilization"] for r in rows if r["device"] == "A100" and r["shape"] == "square"]
    deltas = [g - a for g, a in zip(gaudi_sq, a100_sq)]

    grid = [
        [
            next(
                r["utilization"]
                for r in rows
                if r["device"] == dev and r["shape"] == "irregular"
                and r["m"] == m and r["k"] == k
            )
            for k in sizes
        ]
        for dev in ("Gaudi-2",)
        for m in sizes
    ]
    text = render_heatmap(
        grid, list(sizes), list(sizes),
        title=f"Figure 5(b): Gaudi-2 irregular-GEMM utilization (N={_IRREGULAR_N}; rows=M, cols=K)",
    )
    summary = {
        "mean_square_utilization_delta": arithmetic_mean(deltas),
        "max_square_utilization_delta": max(deltas),
        "gaudi_mean_square_utilization": arithmetic_mean(gaudi_sq),
        "a100_mean_square_utilization": arithmetic_mean(a100_sq),
    }
    return FigureResult(
        figure_id="fig05", title="GEMM utilization heatmaps",
        rows=rows, summary=summary, text=text,
    )
