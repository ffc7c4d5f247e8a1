"""Kernel library: the operations the paper benchmarks.

Every kernel runs against either device model through a common
interface:

* :mod:`repro.kernels.gemm` -- GEMM execution + roofline points (Figures 4, 5, 7).
* :mod:`repro.kernels.stream` -- STREAM ADD/SCALE/TRIAD on TPC-C and CUDA (Figure 8).
* :mod:`repro.kernels.gather_scatter` -- GUPS-style vector gather/scatter (Figure 9).
* :mod:`repro.kernels.embedding` -- embedding-lookup operators: Gaudi SDK
  baseline, custom SingleTable, BatchedTable, and A100 FBGEMM (Figure 15).
* :mod:`repro.kernels.attention` -- dense attention cost models
  (FlashAttention / FusedSDPA).
* :mod:`repro.kernels.paged_attention` -- the vLLM PagedAttention
  implementations: BlockTable-based baseline vs BlockList-based
  optimized (Figures 16, 17).
* :mod:`repro.kernels.elementwise` -- element-wise, normalization and
  activation cost helpers used by the model cost models.
"""

from repro.kernels.gemm import GemmPoint, run_gemm, sweep_square, sweep_irregular
from repro.kernels.stream import StreamOp, StreamResult, run_stream
from repro.kernels.gather_scatter import GatherScatterResult, run_gather_scatter

__all__ = [
    "GatherScatterResult",
    "GemmPoint",
    "StreamOp",
    "StreamResult",
    "run_gather_scatter",
    "run_gemm",
    "run_stream",
    "sweep_irregular",
    "sweep_square",
]
