"""Table 1: accelerator spec comparison (A100 vs Gaudi-2 by default).

Honors the registry comparison set (``REPRO_BACKENDS`` / repeated
``--backend`` flags): the default pair reproduces the paper's
two-column table byte for byte, while a wider set (e.g. adding h100)
renders one column per backend plus ratios against the first.
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, DEFAULT_COMPARISON, GAUDI2, comparison_backends, get_backend
from repro.hw.spec import DType, get_spec, spec_comparison_rows_for


@register_figure("table1")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this table's rows, summary, and text report."""
    keys = comparison_backends()
    if keys != DEFAULT_COMPARISON:
        return _run_nway(keys)
    a100, gaudi = get_backend(A100).spec, get_backend(GAUDI2).spec
    rows = [
        {"metric": metric, "a100": a, "gaudi2": g, "ratio": r}
        for metric, a, g, r in spec_comparison_rows_for([a100, gaudi])
    ]
    text = render_table(
        ["Metric", "NVIDIA A100", "Intel Gaudi-2", "Ratio"],
        [(r["metric"], r["a100"], r["gaudi2"], r["ratio"]) for r in rows],
        title="Table 1: Comparison of NVIDIA A100 and Intel Gaudi-2",
    )
    summary = {
        "matrix_tflops_ratio": gaudi.matrix.peak(DType.BF16) / a100.matrix.peak(DType.BF16),
        "vector_tflops_ratio": gaudi.vector.peak(DType.BF16) / a100.vector.peak(DType.BF16),
        "bandwidth_ratio": gaudi.memory.bandwidth / a100.memory.bandwidth,
        "power_ratio": gaudi.power.tdp_watts / a100.power.tdp_watts,
    }
    return FigureResult(figure_id="table1", title="Device spec comparison",
                        rows=rows, summary=summary, text=text)


def _run_nway(keys) -> FigureResult:
    """One column per backend in the comparison set; ratios vs the
    first (baseline) column."""
    specs = [get_spec(key) for key in keys]
    raw = spec_comparison_rows_for(specs)
    rows = [
        {"metric": row[0],
         **{key: value for key, value in zip(keys, row[1:-1])},
         "ratio": row[-1]}
        for row in raw
    ]
    text = render_table(
        ["Metric", *[s.name for s in specs], "Ratio (vs first)"],
        raw,
        title="Table 1: Comparison of " + " / ".join(s.name for s in specs),
    )
    base = specs[0]
    summary = {}
    for key, spec in zip(keys[1:], specs[1:]):
        summary[f"{key}_matrix_tflops_ratio"] = (
            spec.matrix.peak(DType.BF16) / base.matrix.peak(DType.BF16)
        )
        summary[f"{key}_bandwidth_ratio"] = (
            spec.memory.bandwidth / base.memory.bandwidth
        )
        summary[f"{key}_power_ratio"] = spec.power.tdp_watts / base.power.tdp_watts
    return FigureResult(figure_id="table1", title="Device spec comparison",
                        rows=rows, summary=summary, text=text)
