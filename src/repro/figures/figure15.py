"""Figure 15: embedding-lookup memory-bandwidth utilization.

The Section 4.1 case study over the RM2 embedding configuration:
(a) utilization vs number of tables (SingleTable flat, BatchedTable
rising); (b, c) utilization vs vector size and batch for the two Gaudi
operators; (d) A100 FBGEMM.  Headline paper results: BatchedTable
averages 34.2 % utilization (peak 70.5 %), a 1.52x average improvement
over SingleTable; vs A100, ~95 % of FBGEMM's throughput for >=256 B
vectors but ~47 % below 256 B.
"""

from __future__ import annotations

from repro.core.metrics import arithmetic_mean, geometric_mean
from repro.core.report import render_heatmap
from repro.figures.common import FigureResult, register_figure
from repro.hw.backend import A100, GAUDI2, get_backend
from repro.kernels.embedding import (
    A100Fbgemm,
    EmbeddingConfig,
    GaudiBatchedTable,
    GaudiSingleTable,
)
from repro.models.dlrm import RM2_CONFIG

_TABLE_COUNTS = (1, 2, 5, 10, 20)
_DIMS = (16, 32, 64, 128, 256)     # fp32: 64 B .. 1 KB
_BATCHES = (256, 1024, 4096, 16384)


def _config(tables: int, dim: int, batch: int) -> EmbeddingConfig:
    return EmbeddingConfig(
        num_tables=tables,
        rows_per_table=RM2_CONFIG.rows_per_table,
        embedding_dim=dim,
        pooling=RM2_CONFIG.pooling,
        batch_size=batch,
    )


@register_figure("fig15")
def run(fast: bool = True) -> FigureResult:
    """Regenerate this figure's rows, summary, and text report."""
    gaudi, a100 = get_backend(GAUDI2).spec, get_backend(A100).spec
    single, batched, fbgemm = GaudiSingleTable(gaudi), GaudiBatchedTable(gaudi), A100Fbgemm(a100)
    table_counts = _TABLE_COUNTS[::2] if fast else _TABLE_COUNTS
    dims = _DIMS[::2] if fast else _DIMS
    batches = _BATCHES[::2] if fast else _BATCHES

    rows = []
    # (a) tables sweep at 256 B vectors.
    for tables in table_counts:
        config = _config(tables, 64, 1024)
        for op in (single, batched, fbgemm):
            result = op.run(config)
            rows.append({"panel": "a", "operator": op.name, "tables": tables,
                         "vector_bytes": 256, "batch": 1024,
                         "utilization": result.bandwidth_utilization})
    # (b, c, d) vector-size x batch heatmaps, all tables.
    for dim in dims:
        for batch in batches:
            config = _config(RM2_CONFIG.num_tables, dim, batch)
            for op in (single, batched, fbgemm):
                result = op.run(config)
                rows.append({"panel": "bcd", "operator": op.name,
                             "tables": RM2_CONFIG.num_tables,
                             "vector_bytes": dim * 4, "batch": batch,
                             "utilization": result.bandwidth_utilization})

    bt = [r for r in rows if r["panel"] == "bcd" and r["operator"] == batched.name]
    st = [r for r in rows if r["panel"] == "bcd" and r["operator"] == single.name]
    fb = [r for r in rows if r["panel"] == "bcd" and r["operator"] == fbgemm.name]
    bt_vs_st = [b["utilization"] / s["utilization"] for b, s in zip(bt, st)]
    big = [(b, f) for b, f in zip(bt, fb) if b["vector_bytes"] >= 256]
    small = [(b, f) for b, f in zip(bt, fb) if b["vector_bytes"] < 256]
    summary = {
        "batched_mean_utilization": arithmetic_mean([r["utilization"] for r in bt]),
        "batched_peak_utilization": max(r["utilization"] for r in bt),
        "batched_over_single_mean": geometric_mean(bt_vs_st),
        "batched_vs_a100_large_vectors": arithmetic_mean(
            [b["utilization"] / f["utilization"] for b, f in big]
        ),
        "batched_vs_a100_small_vectors": arithmetic_mean(
            [b["utilization"] / f["utilization"] for b, f in small]
        ),
        "batched_small_vector_utilization": arithmetic_mean(
            [b["utilization"] for b, _ in small]
        ),
        "a100_small_vector_utilization": arithmetic_mean(
            [f["utilization"] for _, f in small]
        ),
    }
    grid = [
        [next(r["utilization"] for r in bt
              if r["vector_bytes"] == d * 4 and r["batch"] == b)
         for b in batches]
        for d in dims
    ]
    text = render_heatmap(
        grid, [d * 4 for d in dims], list(batches),
        title="Figure 15(c): BatchedTable (Gaudi-2) bandwidth utilization "
              "(rows=vector bytes, cols=batch)",
    )
    return FigureResult(figure_id="fig15", title="Embedding operators",
                        rows=rows, summary=summary, text=text)
