"""TPC-C programming-model simulator.

The Gaudi Tensor Processing Core is a single-threaded VLIW processor
with dedicated load/store, scalar, and vector issue slots, a 2048-bit
SIMD vector unit, and a 4-cycle architectural instruction latency
(Section 2.2 of the paper).  This package models that machine closely
enough that the paper's TPC programming best practices -- 256-byte
access granularity and manual loop unrolling -- fall out of the
simulation rather than being assumed:

* :mod:`repro.tpc.isa` -- instruction set, issue slots, latencies.
* :mod:`repro.tpc.pipeline` -- in-order VLIW scoreboard simulator with
  register hazards; this is where unrolling earns its speedup.
* :mod:`repro.tpc.builder` -- a small kernel-construction DSL with
  unroll-time register renaming, mirroring TPC-C's ``#pragma unroll``.
* :mod:`repro.tpc.kernel` / :mod:`repro.tpc.launcher` -- kernel objects
  and the multi-TPC launch model: round-robin partitioning of a
  kernel's trips across TPCs (the index space of Figure 3) with
  per-TPC and chip-wide memory bandwidth bounds.
* :mod:`repro.tpc.intrinsics` -- numpy-backed functional semantics so
  kernel results can be checked for correctness.
"""

from repro.tpc.builder import TpcKernelBuilder
from repro.tpc.isa import Instruction, Opcode, Slot
from repro.tpc.kernel import TpcKernel
from repro.tpc.launcher import KernelLaunchResult, TpcLauncher, partition_members
from repro.tpc.pipeline import PipelineResult, VliwPipeline

__all__ = [
    "Instruction",
    "KernelLaunchResult",
    "Opcode",
    "PipelineResult",
    "Slot",
    "TpcKernel",
    "TpcKernelBuilder",
    "TpcLauncher",
    "VliwPipeline",
    "partition_members",
]
