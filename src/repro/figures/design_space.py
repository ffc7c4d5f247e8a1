"""Design-space figure: a fitted-surrogate MME x fabric x batch grid.

Not a paper figure: a tensor-parallel degree x batch-policy x context
grid for a Llama-3-8B-shaped decoder, every cell scored through the
fitted surrogate surfaces (layer GEMMs, paged attention, per-layer
all-reduces, prefill attention) of :func:`design_space_sweep`.

The tracked behavior: the throughput-optimal cell and the dominant MME
geometry per cell match the exact twin (``design_space_sweep(...,
exact=True)``), which the surrogate test suite cross-checks.
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.surrogate.sweep import design_space_sweep

#: Backend the figure sweeps (the paper's serving subject).
_BACKEND = "gaudi2"


@register_figure("design_space")
def run(fast: bool = True) -> FigureResult:
    """Regenerate the TP x batch x context throughput/TTFT grid."""
    result = design_space_sweep(_BACKEND, fast=fast)
    rows = result["rows"]
    best = result["best"]
    summary = {
        "cells": float(result["cells"]),
        "best_tp": float(best["tp"]),
        "best_batch": float(best["batch"]),
        "best_context": float(best["context"]),
        "best_throughput": best["throughput"],
        "best_ttft": best["ttft"],
    }
    text = render_table(
        ["TP", "Batch", "Context", "Step (ms)", "Tok/s", "TTFT (ms)", "Geometry"],
        [(
            str(r["tp"]), str(r["batch"]), str(r["context"]),
            f"{r['step_time'] * 1e3:.3f}", f"{r['throughput']:.0f}",
            f"{r['ttft'] * 1e3:.1f}", r["geometry"],
        ) for r in rows],
        title=f"Design space ({_BACKEND}@surrogate): decode throughput / TTFT",
    )
    return FigureResult(
        figure_id="design_space",
        title="Surrogate design-space sweep (TP x batch x context)",
        rows=rows,
        summary=summary,
        text=text,
    )
