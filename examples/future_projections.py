#!/usr/bin/env python3
"""The paper's forward pointers, quantified: Gaudi-3 and training.

Footnote 1 describes Gaudi-3 as architecturally identical to Gaudi-2
with scaled engines; Section 5 names training as future work.  This
example runs both projections on the device models, plus the
CUDA/HPU-Graphs tuning knob the methodology section mentions.

Run with::

    python examples/future_projections.py
"""

from repro import get_backend
from repro.core.report import render_table
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.models.training import LlamaTrainingCostModel
from repro.tools import GaudiProfiler


def gaudi3_projection() -> None:
    a100 = get_backend("a100")
    rows = []
    for name in ("gaudi2", "gaudi3", "a100"):
        device = get_backend(name)
        est = LlamaCostModel(LLAMA_3_1_8B, device).generate(32, 100, 100)
        ref = LlamaCostModel(LLAMA_3_1_8B, a100).generate(32, 100, 100)
        rows.append((
            device.name,
            f"{est.tokens_per_second:.0f}",
            f"{ref.total_time / est.total_time:.2f}x",
            f"{est.average_power:.0f}",
            f"{est.tokens_per_joule:.2f}",
        ))
    print(render_table(
        ["Device", "tok/s", "Speedup vs A100", "Power (W)", "tok/J"],
        rows,
        title="Gaudi-3 projection: Llama-3.1-8B serving (batch 32, 100->100)",
    ))
    print()


def training_projection() -> None:
    rows = []
    for name in ("gaudi2", "a100", "gaudi3"):
        device = get_backend(name)
        step = LlamaTrainingCostModel(LLAMA_3_1_8B, device, data_parallel=8).step(
            128, 4096
        )
        rows.append((
            device.name, f"{step.step_time * 1e3:.0f}",
            f"{step.tokens_per_second:.0f}",
            f"{step.model_flops_utilization:.1%}",
            f"{step.gradient_allreduce_time * 1e3:.1f}",
        ))
    print(render_table(
        ["Device", "Step (ms)", "tok/s", "MFU", "Grad AllReduce (ms)"],
        rows,
        title="Training projection: 8B pre-training step, 8-way data parallel",
    ))
    print()


def graphs_knob() -> None:
    gaudi = get_backend("gaudi2")
    with_graphs = LlamaCostModel(LLAMA_3_1_8B, gaudi, use_graphs=True)
    eager = LlamaCostModel(LLAMA_3_1_8B, gaudi, use_graphs=False)
    t_graphs = with_graphs.decode_step(8, 256).time
    t_eager = eager.decode_step(8, 256).time
    print(f"HPU Graphs tuning knob (decode step, batch 8): "
          f"{t_eager * 1e3:.2f} ms eager -> {t_graphs * 1e3:.2f} ms captured "
          f"({t_eager / t_graphs:.2f}x)")
    print()


def geometry_reverse_engineering() -> None:
    grouped = GaudiProfiler(get_backend("gaudi2")).geometry_map(
        m_sizes=(64, 256, 2048, 16384), n_sizes=(64, 256, 2048, 16384)
    )
    print("MME geometry map recovered via the profiler (Figure 7(a) method):")
    for geometry, points in sorted(grouped.items()):
        print(f"  {geometry:11s} <- {points}")


if __name__ == "__main__":
    gaudi3_projection()
    training_projection()
    graphs_knob()
    geometry_reverse_engineering()
