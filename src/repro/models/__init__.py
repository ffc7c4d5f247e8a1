"""Model zoo: the end-to-end workloads of Table 3.

* :mod:`repro.models.llama` -- Llama-3.1-8B/70B-Instruct decoder cost
  models (prefill + decode, single- and multi-device).
* :mod:`repro.models.dlrm` -- DLRM-DCNv2 RM1/RM2 recommendation models.
* :mod:`repro.models.tensor_parallel` -- tensor-parallel sharding and
  the per-layer collective traffic it induces.
"""

from repro.models.dlrm import DlrmConfig, DlrmCostModel, RM1_CONFIG, RM2_CONFIG
from repro.models.llama import (
    LLAMA_3_1_8B,
    LLAMA_3_1_70B,
    GenerationEstimate,
    LlamaConfig,
    LlamaCostModel,
)
from repro.models.tensor_parallel import TensorParallelConfig
from repro.models.training import LlamaTrainingCostModel, TrainingStepEstimate

__all__ = [
    "DlrmConfig",
    "DlrmCostModel",
    "GenerationEstimate",
    "LLAMA_3_1_70B",
    "LLAMA_3_1_8B",
    "LlamaConfig",
    "LlamaCostModel",
    "RM1_CONFIG",
    "RM2_CONFIG",
    "TensorParallelConfig",
    "LlamaTrainingCostModel",
    "TrainingStepEstimate",
]
