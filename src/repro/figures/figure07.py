"""Figure 7: MME geometry configuration and its utilization payoff.

(a) which geometry the compiler picks as a function of (M, N) with
K=16,384; (b) the resulting compute utilization; (c) configurable MME
vs a fixed 256x256x2 output-stationary array with the same peak.
Headline paper result: configurability buys up to ~15 pp of
utilization over the fixed array.
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.spec import DType
from repro.tools.profiler import GaudiProfiler

_K = 16384
_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
_FIG7C_N = (32, 64, 128, 256, 512, 1024, 2048)


@register_figure("fig07")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    profiler = GaudiProfiler()
    device = profiler.device
    sizes = _SIZES[::2] if fast else _SIZES
    rows = profiler.reverse_engineer_mme(sizes, sizes, _K)

    # Figure 7(c): configurable vs fixed array, M=K=16,384, N swept.
    fig7c = []
    for n in _FIG7C_N:
        configurable = device.mme.gemm(_K, _K, n, DType.BF16).utilization
        fixed = device.mme.fixed_array_utilization(_K, _K, n)
        fig7c.append(
            {"m": _K, "k": _K, "n": n, "configurable_util": configurable,
             "fixed_util": fixed, "gain": configurable - fixed}
        )

    geometry_table = render_table(
        ["M", "N", "Geometry", "Power-gated", "Utilization"],
        [
            (r["m"], r["n"], r["geometry"], "yes" if r["power_gated"] else "no",
             f"{r['utilization']:.1%}")
            for r in rows
        ],
        title=f"Figure 7(a,b): MME geometry vs (M, N), K={_K}",
    )
    fig7c_table = render_table(
        ["N", "Configurable", "Fixed 256x256x2", "Gain (pp)"],
        [
            (r["n"], f"{r['configurable_util']:.1%}", f"{r['fixed_util']:.1%}",
             f"{100 * r['gain']:.1f}")
            for r in fig7c
        ],
        title="Figure 7(c): configurable vs fixed systolic array (M=K=16,384)",
    )
    summary = {
        "max_configurability_gain": max(r["gain"] for r in fig7c),
        "num_power_gated_configs": float(sum(1 for r in rows if r["power_gated"])),
        "distinct_geometries": float(len({r["geometry"] for r in rows})),
    }
    return FigureResult(
        figure_id="fig07",
        title="MME geometry configurability",
        rows=rows + fig7c,
        summary=summary,
        text=geometry_table + "\n\n" + fig7c_table,
    )
