#!/usr/bin/env python3
"""RecSys serving scenario: DLRM-DCNv2 RM1/RM2 on a single device.

Reproduces the Section 3.5 / 4.1 RecSys story: end-to-end RM1/RM2
inference across batch sizes and embedding widths (Figure 11), plus
the embedding-operator comparison behind it (Figure 15).

Run with::

    python examples/recsys_serving.py
"""

from repro import get_backend
from repro.core.report import render_table
from repro.kernels.embedding import (
    A100Fbgemm,
    EmbeddingConfig,
    GaudiBatchedTable,
    GaudiSdkSingleTable,
    GaudiSingleTable,
)
from repro.models.dlrm import DlrmCostModel, RM1_CONFIG, RM2_CONFIG
from repro.serving import RecSysServer


def end_to_end() -> None:
    gaudi, a100 = get_backend("gaudi2"), get_backend("a100")
    rows = []
    for base in (RM1_CONFIG, RM2_CONFIG):
        for dim in (16, 64, 256):
            config = base.with_embedding_dim(dim)
            for batch in (1024, 16384):
                gaudi_report = RecSysServer(DlrmCostModel(config, gaudi)).serve_batch(batch)
                a100_report = RecSysServer(DlrmCostModel(config, a100)).serve_batch(batch)
                rows.append((
                    base.name, f"{dim * 4}B", batch,
                    f"{gaudi_report.requests_per_s / 1e6:.2f}M",
                    f"{a100_report.requests_per_s / 1e6:.2f}M",
                    f"{a100_report.latency / gaudi_report.latency:.2f}x",
                    f"{a100_report.energy_joules / gaudi_report.energy_joules:.2f}x",
                ))
    print(render_table(
        ["Model", "Vector", "Batch", "Gaudi req/s", "A100 req/s",
         "Speedup", "Energy-eff"],
        rows,
        title="Figure 11 flavour: RM1/RM2 single-device serving (FP32)",
    ))
    print()


def embedding_operators() -> None:
    gaudi, a100 = get_backend("gaudi2").spec, get_backend("a100").spec
    operators = [
        GaudiSdkSingleTable(gaudi),
        GaudiSingleTable(gaudi),
        GaudiBatchedTable(gaudi),
        A100Fbgemm(a100),
    ]
    rows = []
    for batch in (512, 8192):
        config = EmbeddingConfig(
            num_tables=RM2_CONFIG.num_tables,
            rows_per_table=RM2_CONFIG.rows_per_table,
            embedding_dim=64,
            pooling=RM2_CONFIG.pooling,
            batch_size=batch,
        )
        for op in operators:
            result = op.run(config)
            rows.append((
                op.name, batch, result.launches,
                f"{result.time * 1e3:.2f}",
                f"{result.bandwidth_utilization:.1%}",
            ))
    print(render_table(
        ["Operator", "Batch", "Launches", "Time (ms)", "BW util"],
        rows,
        title="Figure 15 flavour: embedding operators on the RM2 config (256 B rows)",
    ))


if __name__ == "__main__":
    end_to_end()
    embedding_operators()
