"""Hardware models for the evaluated platforms.

This package contains mechanistic performance and energy models of the
Intel Gaudi-2 NPU, the NVIDIA A100 GPU, and further registered
backends, built from the microarchitectural facts documented in the
paper (Table 1, Section 2, and the reverse-engineering results of
Section 3):

* :mod:`repro.hw.spec` -- typed spec sheets (Table 1 of the paper).
* :mod:`repro.hw.backend` -- the ``Backend`` protocol and the
  string-keyed registry every platform lookup resolves through.
* :mod:`repro.hw.systolic` -- a generic output-stationary systolic-array
  cycle model.
* :mod:`repro.hw.mme` -- Gaudi's reconfigurable Matrix Multiplication
  Engine, including the geometry set recovered in Figure 7(a).
* :mod:`repro.hw.tensorcore` -- A100's Tensor Core GEMM model with CTA
  tiling and SM wave quantization.
* :mod:`repro.hw.hopper` -- the H100 tile-based tensor-core GEMM model
  (the registry's third contender).
* :mod:`repro.hw.vector_unit` -- peak-throughput models for the TPC
  vector unit and the A100 SIMD cores.
* :mod:`repro.hw.memory` -- HBM bandwidth model with access-granularity
  waste and random-access behaviour.
* :mod:`repro.hw.power` -- activity-based power/energy model.
* :mod:`repro.hw.device` -- ``Gaudi2Device`` / ``A100Device`` facades
  that tie the component models together.
"""

from repro.hw.backend import (
    A100,
    GAUDI2,
    GAUDI3,
    H100,
    Backend,
    BackendInfo,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.hw.device import A100Device, Device, Gaudi2Device
from repro.hw.mme import MmeConfig, MmeModel
from repro.hw.memory import AccessPattern, HbmModel
from repro.hw.power import ActivityAccumulator, ActivityProfile, PowerModel, PowerSample
from repro.hw.spec import (
    A100_SPEC,
    GAUDI2_SPEC,
    DeviceSpec,
    DType,
)
from repro.hw.systolic import SystolicArray, SystolicGeometry
from repro.hw.tensorcore import TensorCoreModel
from repro.hw.vector_unit import VectorUnitModel

__all__ = [
    "A100Device",
    "ActivityAccumulator",
    "ActivityProfile",
    "A100_SPEC",
    "AccessPattern",
    "A100",
    "Backend",
    "BackendInfo",
    "GAUDI2",
    "GAUDI3",
    "H100",
    "Device",
    "DeviceSpec",
    "DType",
    "GAUDI2_SPEC",
    "Gaudi2Device",
    "HbmModel",
    "MmeConfig",
    "MmeModel",
    "PowerModel",
    "PowerSample",
    "SystolicArray",
    "SystolicGeometry",
    "TensorCoreModel",
    "VectorUnitModel",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
]
