"""repro: a simulator-based reproduction of "Debunking the CUDA Myth
Towards GPU-based AI Systems" (ISCA 2025).

The paper characterizes Intel's Gaudi-2 NPU against NVIDIA's A100 GPU
for AI model serving.  This library rebuilds the entire study on
mechanistic performance/energy models of both devices:

* :mod:`repro.hw` -- device models (MME, Tensor Cores, TPC vector
  engines, HBM, power).
* :mod:`repro.tpc` -- a TPC-C programming-model simulator (VLIW
  scoreboard pipeline, index space, kernel DSL).
* :mod:`repro.cuda` -- the A100 CUDA-kernel analog.
* :mod:`repro.comm` -- P2P-mesh vs NVSwitch collectives (HCCL/NCCL).
* :mod:`repro.kernels` -- GEMM, STREAM, gather/scatter, embedding
  operators, attention, PagedAttention.
* :mod:`repro.models` -- DLRM-DCNv2 (RM1/RM2) and Llama-3.1 (8B/70B).
* :mod:`repro.serving` -- paged-KV continuous-batching LLM engine and
  the RecSys server.
* :mod:`repro.core` -- the characterization framework (metrics,
  rooflines, reports, the Table 2 registry).
* :mod:`repro.figures` -- regeneration of every table and figure in
  the paper's evaluation.

Quickstart::

    from repro import A100, GAUDI2, get_backend
    gaudi, a100 = get_backend(GAUDI2), get_backend(A100)
    print(gaudi.gemm(8192, 8192, 8192).utilization)   # ~0.997
    print(a100.gemm(8192, 8192, 8192).utilization)    # ~0.91
"""

from repro.hw import (
    A100Device,
    A100_SPEC,
    A100,
    GAUDI2,
    GAUDI3,
    H100,
    Backend,
    DType,
    Device,
    DeviceSpec,
    GAUDI2_SPEC,
    Gaudi2Device,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)

__version__ = "1.0.0"

__all__ = [
    "A100Device",
    "A100_SPEC",
    "A100",
    "Backend",
    "GAUDI2",
    "GAUDI3",
    "H100",
    "DType",
    "Device",
    "DeviceSpec",
    "GAUDI2_SPEC",
    "Gaudi2Device",
    "__version__",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
]
