"""Extension benches: Gaudi-3 projection and the training scenario.

Both are the paper's own forward pointers -- footnote 1 (Gaudi-3) and
the Section 5 future work (training) -- run on the same device models.
"""

from repro.core.report import render_table
from repro.hw.backend import get_backend
from repro.models.llama import LLAMA_3_1_8B, LlamaCostModel
from repro.models.training import LlamaTrainingCostModel


def _gaudi3_serving_rows():
    rows = []
    a100 = get_backend("a100")
    for name in ("gaudi2", "gaudi3"):
        device = get_backend(name)
        rows_for_device = []
        for batch, out in ((16, 100), (64, 400)):
            est = LlamaCostModel(LLAMA_3_1_8B, device).generate(batch, 100, out)
            ref = LlamaCostModel(LLAMA_3_1_8B, a100).generate(batch, 100, out)
            rows_for_device.append(ref.total_time / est.total_time)
        rows.append((device.name,
                     f"{rows_for_device[0]:.2f}x", f"{rows_for_device[1]:.2f}x"))
    return rows


def test_extension_gaudi3_projection(benchmark, results_dir):
    rows = benchmark.pedantic(_gaudi3_serving_rows, rounds=1, iterations=1)
    text = render_table(
        ["Device", "Speedup vs A100 (b16/o100)", "Speedup vs A100 (b64/o400)"],
        rows,
        title="Extension: Gaudi-3 projection, Llama-3.1-8B serving",
    )
    (results_dir / "extension_gaudi3.txt").write_text(text + "\n")
    print("\n" + text)
    g2 = float(rows[0][1][:-1])
    g3 = float(rows[1][1][:-1])
    assert g3 > 1.5 * g2  # the announced compute/bandwidth scaling shows


def _training_rows():
    rows = []
    for name in ("gaudi2", "a100", "gaudi3"):
        device = get_backend(name)
        step = LlamaTrainingCostModel(LLAMA_3_1_8B, device, data_parallel=8).step(
            global_batch=128, seq_len=4096
        )
        rows.append((
            device.name,
            f"{step.step_time * 1e3:.0f}",
            f"{step.tokens_per_second:.0f}",
            f"{step.model_flops_utilization:.1%}",
            f"{step.energy_per_token * 1e3:.2f}",
        ))
    return rows


def test_extension_training_step(benchmark, results_dir):
    rows = benchmark.pedantic(_training_rows, rounds=1, iterations=1)
    text = render_table(
        ["Device", "Step (ms)", "Tokens/s (node)", "MFU", "mJ/token"],
        rows,
        title="Extension: Llama-3.1-8B training step, 8-way data parallel",
    )
    (results_dir / "extension_training.txt").write_text(text + "\n")
    print("\n" + text)
    by_device = {r[0]: float(r[1]) for r in rows}
    # Section 5's claim under the model: Gaudi-2 competitive at a full
    # node, where its interconnect runs at full strength.
    assert by_device["Gaudi-2"] < by_device["A100"]
    assert by_device["Gaudi-3"] < by_device["Gaudi-2"]
