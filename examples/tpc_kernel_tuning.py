#!/usr/bin/env python3
"""Hands-on TPC-C kernel tuning: the paper's two best practices.

Builds a custom element-wise kernel with the TPC DSL and walks through
the optimizations Section 2.2 recommends -- 256-byte access granularity
and manual loop unrolling -- showing each one's effect on a single TPC
and on the whole chip (Figure 8's methodology as a library).

Run with::

    python examples/tpc_kernel_tuning.py
"""

import numpy as np

from repro.core.report import render_table
from repro.kernels.stream import StreamOp, reference_result, run_stream
from repro.hw.device import Gaudi2Device
from repro.tpc import TpcKernelBuilder, TpcLauncher
from repro.tpc.isa import Opcode

N = 24_000_000


def best_practices_sweep() -> None:
    gaudi = Gaudi2Device()
    rows = []
    # Best practice 1: align accesses to the 256 B granularity.
    for granularity in (32, 128, 256):
        result = run_stream(device=gaudi, op=StreamOp.TRIAD, num_elements=N,
                            access_bytes=granularity, num_cores=1)
        rows.append(("granularity", f"{granularity}B", 1, 1,
                     f"{result.achieved_gflops:.1f}"))
    # Best practice 2: unroll the loop.
    for unroll in (1, 4):
        result = run_stream(device=gaudi, op=StreamOp.SCALE, num_elements=N, unroll=unroll,
                            num_cores=1)
        rows.append(("unroll", "256B", unroll, 1, f"{result.achieved_gflops:.1f}"))
    # Then scale out across TPCs.
    for cores in (4, 12, 24):
        result = run_stream(device=gaudi, op=StreamOp.TRIAD, num_elements=N, unroll=4,
                            num_cores=cores)
        rows.append(("scale-out", "256B", 4, cores, f"{result.achieved_gflops:.1f}"))
    print(render_table(
        ["Knob", "Access", "Unroll", "TPCs", "GFLOPS"],
        rows,
        title="TPC best practices on the STREAM kernels (BF16)",
    ))
    print()


def custom_kernel() -> None:
    """A custom fused multiply-add-max kernel, timed and verified."""

    def body(b: TpcKernelBuilder) -> None:
        x = b.load_tensor("x")
        y = b.load_tensor("y")
        mac = b.vec_into(Opcode.MAC, y, x)   # y += scale * x
        clipped = b.vec(Opcode.MAX, mac, x)
        b.store_tensor("out", clipped)

    def functional(x: np.ndarray, y: np.ndarray, scalar: float = 2.0) -> np.ndarray:
        return np.maximum(y + x * scalar, x)

    kernel = TpcKernelBuilder("mac_clip").build_loop(
        body, iterations=N // 128, unroll=4, functional=functional
    )
    launch = TpcLauncher(Gaudi2Device().spec).launch(kernel)
    print(f"custom kernel '{kernel.name}': {launch.time * 1e3:.2f} ms "
          f"({launch.achieved_flops / 1e9:.0f} GFLOPS, "
          f"bottleneck: {launch.bottleneck})")

    # The functional model verifies semantics on real data.
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=1024), rng.normal(size=1024)
    out = kernel.run_functional(x, y)
    reference = np.maximum(reference_result(StreamOp.TRIAD, x, y, scalar=2.0), x)
    np.testing.assert_allclose(out, reference)
    print("functional check: OK (matches numpy reference)")


if __name__ == "__main__":
    best_practices_sweep()
    custom_kernel()
