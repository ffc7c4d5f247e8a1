"""Element-wise operator cost helpers.

The model cost paths (DLRM, Llama) need costs for activations, bias
adds, normalization, and residual sums.  These are vector-engine ops
on either platform; the helpers below produce their ``(compute_time,
input_bytes, output_bytes)`` cost, plus numpy semantics for tests.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.memo import CostCache
from repro.hw.spec import DeviceSpec, DType
from repro.hw.vector_unit import VectorUnitModel


@dataclass(frozen=True)
class ElementwiseCost:
    """Cost triple for one element-wise op."""

    compute_time: float
    input_bytes: float
    output_bytes: float


# DeviceSpec nests dicts (per-dtype peaks), so it is not hashable; the
# per-spec cache is keyed on object identity, with a finalizer dropping
# the slot when the spec is collected (identity keys are only safe
# while the object is alive).
_COST_CACHES: Dict[int, CostCache] = {}


def _cache_for(spec: DeviceSpec) -> CostCache:
    cache = _COST_CACHES.get(id(spec))
    if cache is None:
        cache = CostCache(f"kernels.elementwise[{spec.name}]")
        _COST_CACHES[id(spec)] = cache
        weakref.finalize(spec, _COST_CACHES.pop, id(spec), None)
    return cache


def elementwise_cost(
    spec: DeviceSpec,
    num_elements: int,
    flops_per_element: float = 1.0,
    num_inputs: int = 1,
    dtype: DType = DType.BF16,
    uses_fma: bool = False,
) -> ElementwiseCost:
    """Cost of an element-wise op over ``num_elements`` outputs."""
    if num_elements < 0 or num_inputs < 1:
        raise ValueError("num_elements must be >= 0 and num_inputs >= 1")
    cache = _cache_for(spec)
    key = (num_elements, flops_per_element, num_inputs, dtype, uses_fma)
    cost = cache.get(key)
    if cost is not None:
        return cost
    vector = VectorUnitModel(spec.vector)
    compute = vector.elementwise_time(num_elements, flops_per_element, dtype, uses_fma)
    itemsize = dtype.itemsize
    cost = ElementwiseCost(
        compute_time=compute,
        input_bytes=float(num_elements) * itemsize * num_inputs,
        output_bytes=float(num_elements) * itemsize,
    )
    cache.put(key, cost)
    return cost


def elementwise_fn(
    spec: DeviceSpec, flops_per_element: float, dtype: DType = DType.BF16
) -> Callable[[int], Tuple[float, float]]:
    """:func:`elementwise_cost` of a one-input, non-FMA op with the
    element count left free, as ``cost(num_elements) -> (compute_time,
    input_bytes + output_bytes)`` (bit-identical, no result object, no
    cache lookup)."""
    if flops_per_element < 0:
        raise ValueError("flops_per_element must be >= 0")
    ceiling = VectorUnitModel(spec.vector).sustained_flops(dtype, uses_fma=False).flops
    itemsize = dtype.itemsize

    def cost(num_elements: int) -> Tuple[float, float]:
        if num_elements < 0:
            raise ValueError("num_elements must be >= 0")
        compute = (
            num_elements * flops_per_element / ceiling
            if num_elements and flops_per_element else 0.0
        )
        elements = float(num_elements)
        return compute, elements * itemsize + elements * itemsize

    return cost


#: Vector ops per element of a SiLU/GELU-style activation.
ACTIVATION_FLOPS = 4.0

#: Vector ops per element of RMSNorm/LayerNorm (two passes fused).
LAYERNORM_FLOPS = 6.0


def activation_cost(spec: DeviceSpec, num_elements: int, dtype: DType = DType.BF16) -> ElementwiseCost:
    """SiLU/GELU-style activation: ~4 vector ops per element."""
    return elementwise_cost(
        spec, num_elements, flops_per_element=ACTIVATION_FLOPS, dtype=dtype
    )


def layernorm_cost(spec: DeviceSpec, num_elements: int, dtype: DType = DType.BF16) -> ElementwiseCost:
    """RMSNorm/LayerNorm: ~6 vector ops per element (two passes fused)."""
    return elementwise_cost(
        spec, num_elements, flops_per_element=LAYERNORM_FLOPS, dtype=dtype
    )


# -- functional semantics ------------------------------------------------
def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation, ``x * sigmoid(x)``."""
    x = np.asarray(x, dtype=np.float64)
    return x / (1.0 + np.exp(-x))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU activation."""
    return np.maximum(np.asarray(x), 0.0)


def rmsnorm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """RMS normalization over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    scale = np.sqrt((x * x).mean(axis=-1, keepdims=True) + eps)
    return x / scale * np.asarray(weight)
