"""Figure 4: GEMM roofline of Gaudi-2 vs A100 (BF16).

Square GEMMs (M=K=N, square markers) plus irregular tall-skinny GEMMs
with N fixed at 16 (triangle markers), placed on each device's
roofline.  Headline paper result: Gaudi-2 outperforms A100 across all
shapes and reaches 429 TFLOPS (99.3 % of peak) at M=K=N=8192.
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.core.roofline import Roofline
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import DEFAULT_COMPARISON, comparison_backends, get_backend
from repro.kernels.gemm import (
    IRREGULAR_N,
    IRREGULAR_SIZES,
    SQUARE_SIZES,
    run_gemm,
)


@register_figure("fig04")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report.

    Honors the registry comparison set (``REPRO_BACKENDS`` / repeated
    ``--backend``): the default pair is the paper's Gaudi-2-vs-A100
    roofline; extra backends (e.g. h100) add their points and the
    summary gains per-backend peak columns.
    """
    keys = comparison_backends()
    devices = [get_backend(key) for key in keys]
    square = SQUARE_SIZES[::2] if fast else SQUARE_SIZES
    irregular = IRREGULAR_SIZES[::2] if fast else IRREGULAR_SIZES

    rows = []
    for device in devices:
        roofline = Roofline.for_device(device.spec)
        for size in square:
            point = run_gemm(device=device, m=size, k=size, n=size)
            rows.append(_row(point, roofline, "square"))
        for size in irregular:
            point = run_gemm(device=device, m=size, k=size, n=IRREGULAR_N)
            rows.append(_row(point, roofline, "irregular"))

    table = render_table(
        ["Device", "Shape", "M", "K", "N", "OI (flops/B)", "TFLOPS", "Util", "Bound"],
        [
            (
                r["device"], r["shape"], r["m"], r["k"], r["n"],
                f"{r['operational_intensity']:.1f}",
                f"{r['achieved_tflops']:.1f}",
                f"{r['utilization']:.1%}",
                "memory" if r["memory_bound"] else "compute",
            )
            for r in rows
        ],
        title="Figure 4: GEMM roofline points (BF16)",
    )
    if keys == DEFAULT_COMPARISON:
        peak_8192 = max(
            (r for r in rows if r["device"] == "Gaudi-2" and r["shape"] == "square"),
            key=lambda r: r["m"],
        )
        gaudi_square = [
            r for r in rows if r["device"] == "Gaudi-2" and r["shape"] == "square"
        ]
        a100_square = [
            r for r in rows if r["device"] == "A100" and r["shape"] == "square"
        ]
        wins = sum(
            1
            for rg, ra in zip(gaudi_square, a100_square)
            if rg["achieved_tflops"] > ra["achieved_tflops"]
        )
        summary = {
            "gaudi_peak_tflops_largest_square": peak_8192["achieved_tflops"],
            "gaudi_peak_utilization_largest_square": peak_8192["utilization"],
            "gaudi_wins_all_square_shapes": float(wins == len(gaudi_square)),
        }
    else:
        summary = {}
        for key, device in zip(keys, devices):
            peak = max(
                (r for r in rows
                 if r["device"] == device.name and r["shape"] == "square"),
                key=lambda r: r["m"],
            )
            summary[f"{key}_peak_tflops_largest_square"] = peak["achieved_tflops"]
            summary[f"{key}_peak_utilization_largest_square"] = peak["utilization"]
    return FigureResult(
        figure_id="fig04", title="GEMM roofline", rows=rows, summary=summary, text=table
    )


def _row(point, roofline: Roofline, shape: str) -> dict:
    placed = roofline.place(
        f"{point.m}x{point.k}x{point.n}",
        point.operational_intensity,
        point.achieved_tflops * 1e12,
    )
    return {
        "device": point.device,
        "shape": shape,
        "m": point.m,
        "k": point.k,
        "n": point.n,
        "operational_intensity": point.operational_intensity,
        "achieved_tflops": point.achieved_tflops,
        "utilization": point.utilization,
        "memory_bound": point.memory_bound,
        "roofline_efficiency": placed.efficiency,
    }
