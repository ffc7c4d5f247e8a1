#!/usr/bin/env python3
"""Quickstart: the two device models and the Table 1 / Figure 4 story.

Run with::

    python examples/quickstart.py
"""

from repro import get_backend
from repro.core.report import render_table
from repro.core.roofline import Roofline
from repro.hw.spec import spec_comparison_rows_for
from repro.kernels.gemm import run_gemm


def main() -> None:
    gaudi = get_backend("gaudi2")
    a100 = get_backend("a100")

    # ------------------------------------------------------------------
    # Table 1: the spec sheets.
    # ------------------------------------------------------------------
    print(render_table(
        ["Metric", "A100", "Gaudi-2", "Ratio"],
        spec_comparison_rows_for([a100.spec, gaudi.spec]),
        title="Table 1: NVIDIA A100 vs Intel Gaudi-2",
    ))
    print()

    # ------------------------------------------------------------------
    # GEMM: the configurable MME vs fixed-tile Tensor Cores.
    # ------------------------------------------------------------------
    rows = []
    for m, k, n in [(512, 512, 512), (2048, 2048, 2048), (8192, 8192, 8192),
                    (8192, 8192, 16)]:
        pg = run_gemm(device=gaudi, m=m, k=k, n=n)
        pa = run_gemm(device=a100, m=m, k=k, n=n)
        rows.append((
            f"{m}x{k}x{n}",
            f"{pg.achieved_tflops:.0f} TF ({pg.utilization:.0%})",
            f"{pa.achieved_tflops:.0f} TF ({pa.utilization:.0%})",
            f"{pg.achieved_tflops / pa.achieved_tflops:.2f}x",
            pg.config_label,
        ))
    print(render_table(
        ["GEMM", "Gaudi-2", "A100", "Speedup", "MME config"],
        rows,
        title="Figure 4 flavour: GEMM on both matrix engines (BF16)",
    ))
    print()

    # ------------------------------------------------------------------
    # Rooflines.
    # ------------------------------------------------------------------
    for device in (gaudi, a100):
        roofline = Roofline.for_device(device.spec)
        print(
            f"{device.name}: peak {roofline.peak_flops / 1e12:.0f} TFLOPS, "
            f"{roofline.peak_bandwidth / 1e12:.2f} TB/s, "
            f"ridge at {roofline.ridge_point:.0f} flops/byte"
        )


if __name__ == "__main__":
    main()
