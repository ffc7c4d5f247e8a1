"""Figure 9: vector gather/scatter memory-bandwidth utilization.

4M vectors of 16 B - 2,048 B, gathered from / scattered to random
locations, with the accessed fraction swept.  Headline paper results:
Gaudi-2 averages 64 % utilization for >=256 B gathers vs A100's 72 %,
but only ~15 % vs A100's ~36 % below 256 B (a 2.4x gap).
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean
from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.gather_scatter import run_gather_scatter

_VECTOR_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)
_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


@register_figure("fig09")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    sizes = _VECTOR_SIZES[::2] if fast else _VECTOR_SIZES
    fractions = (_FRACTIONS[0], _FRACTIONS[-1]) if fast else _FRACTIONS

    rows = []
    for device in (gaudi, a100):
        for is_scatter in (False, True):
            for size in sizes:
                for fraction in fractions:
                    result = run_gather_scatter(
                        device=device, vector_bytes=size,
                        fraction_accessed=fraction, is_scatter=is_scatter,
                    )
                    rows.append({
                        "device": device.name,
                        "op": "scatter" if is_scatter else "gather",
                        "vector_bytes": size,
                        "fraction": fraction,
                        "bandwidth_utilization": result.bandwidth_utilization,
                    })

    def avg(device, op, predicate):
        pts = [r["bandwidth_utilization"] for r in rows
               if r["device"] == device and r["op"] == op and predicate(r["vector_bytes"])]
        return arithmetic_mean(pts)

    summary = {
        "gaudi_gather_util_small": avg("Gaudi-2", "gather", lambda s: s <= 128),
        "a100_gather_util_small": avg("A100", "gather", lambda s: s <= 128),
        "gaudi_gather_util_large": avg("Gaudi-2", "gather", lambda s: s >= 256),
        "a100_gather_util_large": avg("A100", "gather", lambda s: s >= 256),
    }
    summary["small_vector_gap"] = (
        summary["a100_gather_util_small"] / summary["gaudi_gather_util_small"]
    )
    text = render_table(
        ["Device", "Op", "Vector", "Fraction", "BW util"],
        [
            (r["device"], r["op"], f"{r['vector_bytes']}B", r["fraction"],
             f"{r['bandwidth_utilization']:.1%}")
            for r in rows
        ],
        title="Figure 9: gather/scatter bandwidth utilization",
    )
    return FigureResult(figure_id="fig09", title="Gather/scatter",
                        rows=rows, summary=summary, text=text)
