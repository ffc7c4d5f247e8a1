"""DLRM-DCNv2 recommendation models (Table 3; Figure 11).

Two configurations from the paper's Table 3, both based on the MLPerf
DLRM-DCNv2 reference:

* **RM1** -- compute-intensive: large bottom/top MLPs and a wide DCNv2
  interaction dominate.
* **RM2** -- memory-intensive: small MLPs; the embedding layer
  dominates.

Where Table 3's scan is ambiguous, the assumptions are: both models use
1M-row embedding tables; RM1 has 10 tables with 10 lookups (gathers)
pooled per table, RM2 has 20 tables with 20 lookups.  The embedding
dimension is a sweep axis in Figure 11, so it is a constructor argument
(default 64 elements = 256 B in FP32).

The paper serves RecSys in FP32 (Section 3.1) on a single device.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.memo import CostCache
from repro.hw.device import Device
from repro.hw.power import ActivityAccumulator, PowerModel
from repro.hw.spec import DType
from repro.kernels.elementwise import elementwise_cost, relu
from repro.kernels.embedding import (
    A100Fbgemm,
    EmbeddingConfig,
    GaudiBatchedTable,
    reference_embedding_bag,
)

#: Per-op dispatch overhead during RecSys inference (HPU/CUDA graphs).
_OP_DISPATCH = 2e-6

#: Forward estimates shared by every model instance, keyed on
#: ``(device, config, batch)``: the device is the registry singleton (a
#: ``fresh=True`` or perturbed backend is another object, so another
#: key) and ``DlrmConfig`` is frozen.
_FORWARD_CACHE = CostCache("dlrm.forward")


@dataclass(frozen=True)
class DlrmConfig:
    """One DLRM-DCNv2 configuration."""

    name: str
    num_tables: int
    rows_per_table: int
    embedding_dim: int
    pooling: int
    dense_features: int
    bottom_mlp: Tuple[int, ...]
    top_mlp: Tuple[int, ...]
    cross_low_rank: int
    cross_layers: int
    dtype: DType = DType.FP32

    def __post_init__(self) -> None:
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ValueError(
                "bottom MLP output width must equal the embedding dim "
                f"({self.bottom_mlp[-1]} != {self.embedding_dim})"
            )

    def with_embedding_dim(self, dim: int) -> "DlrmConfig":
        """The Figure 11 sweep axis: resize embeddings and bottom MLP."""
        bottom = self.bottom_mlp[:-1] + (dim,)
        return replace(self, embedding_dim=dim, bottom_mlp=bottom)

    @property
    def interaction_width(self) -> int:
        """Concatenated feature width entering DCNv2."""
        return (self.num_tables + 1) * self.embedding_dim

    def embedding_config(self, batch: int) -> EmbeddingConfig:
        return EmbeddingConfig(
            num_tables=self.num_tables,
            rows_per_table=self.rows_per_table,
            embedding_dim=self.embedding_dim,
            pooling=self.pooling,
            batch_size=batch,
            dtype=self.dtype,
        )


RM1_CONFIG = DlrmConfig(
    name="RM1",
    num_tables=10,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling=10,
    dense_features=13,
    bottom_mlp=(512, 256, 64),
    top_mlp=(1024, 1024, 512, 256, 1),
    cross_low_rank=512,
    cross_layers=3,
)

RM2_CONFIG = DlrmConfig(
    name="RM2",
    num_tables=20,
    rows_per_table=1_000_000,
    embedding_dim=64,
    pooling=20,
    dense_features=13,
    bottom_mlp=(256, 64, 64),
    top_mlp=(128, 64, 1),
    cross_low_rank=64,
    cross_layers=2,
)


@dataclass(frozen=True)
class DlrmForwardEstimate:
    """One forward pass (a batch of inference requests)."""

    device: str
    config_name: str
    batch: int
    time: float
    #: Read-only: a cached estimate is shared by every caller.
    breakdown: Mapping[str, float]
    average_power: float

    @property
    def requests_per_second(self) -> float:
        return self.batch / self.time if self.time > 0 else 0.0

    @property
    def energy_joules(self) -> float:
        return self.average_power * self.time

    @property
    def requests_per_joule(self) -> float:
        return self.batch / self.energy_joules if self.energy_joules > 0 else 0.0


class DlrmCostModel:
    """Forward-pass cost model of a DLRM configuration on one device."""

    def __init__(self, config: DlrmConfig, device: Device) -> None:
        self.config = config
        self.device = device
        family = getattr(device, "family", "")
        if family == "gaudi":
            self.embedding_op = GaudiBatchedTable(device.spec)
        elif family == "cuda":
            self.embedding_op = A100Fbgemm(device.spec)
        else:
            raise TypeError(f"unsupported device {device!r} (family {family!r})")

    # -- pieces ------------------------------------------------------------
    def _gemm(self, acc: ActivityAccumulator, m: int, k: int, n: int) -> float:
        result = self.device.gemm(m, k, n, self.config.dtype)
        acc.add_matrix(
            result.flops / self.device.spec.matrix.peak(self.config.dtype),
            result.active_mac_fraction,
        )
        traffic = self.config.dtype.itemsize * (k * n + m * k + m * n)
        acc.add_memory(traffic / self.device.peak_bandwidth)
        return result.time + _OP_DISPATCH

    def _mlp(self, acc: ActivityAccumulator, batch: int, in_width: int,
             widths: Sequence[int]) -> float:
        time = 0.0
        current = in_width
        for width in widths:
            time += self._gemm(acc, batch, current, width)
            cost = elementwise_cost(self.device.spec, batch * width, 1.0, 1, self.config.dtype)
            time += max(
                cost.compute_time,
                (cost.input_bytes + cost.output_bytes)
                / (self.device.spec.memory.bandwidth * self.device.spec.memory.stream_efficiency),
            )
            acc.add_vector(cost.compute_time)
            acc.add_memory((cost.input_bytes + cost.output_bytes) / self.device.peak_bandwidth)
            current = width
        return time

    def embedding_time(self, batch: int, acc: Optional[ActivityAccumulator] = None) -> float:
        result = self.embedding_op.run(self.config.embedding_config(batch))
        if acc is not None:
            # DRAM power follows *moved* bytes: sub-granule rows still
            # activate and transfer whole granules, so the wasted
            # bandwidth burns power without doing useful work.
            granule = self.device.spec.memory.min_access_bytes
            row = self.config.embedding_dim * self.config.dtype.itemsize
            waste = granule * math.ceil(row / granule) / row
            acc.add_memory(
                min(
                    result.time,
                    result.config.useful_bytes * waste / self.device.peak_bandwidth,
                )
            )
            # The single-threaded TPCs actively spin issuing gathers for
            # the whole phase; GPU warps mostly stall on memory, so the
            # SIMD cores draw far less dynamic power during lookups.
            issue_activity = 1.0 if self.device.family == "gaudi" else 0.35
            acc.add_vector(result.time * issue_activity)
        return result.time

    def interaction_time(self, batch: int, acc: ActivityAccumulator) -> float:
        """DCNv2 low-rank cross layers: x' = x0 * (U (V x) + b) + x."""
        width = self.config.interaction_width
        rank = self.config.cross_low_rank
        time = 0.0
        for _ in range(self.config.cross_layers):
            time += self._gemm(acc, batch, width, rank)
            time += self._gemm(acc, batch, rank, width)
            cost = elementwise_cost(self.device.spec, batch * width, 2.0, 2, self.config.dtype)
            time += cost.compute_time
            acc.add_vector(cost.compute_time)
        return time

    # -- forward -------------------------------------------------------------
    def forward(self, batch: int) -> DlrmForwardEstimate:
        if batch <= 0:
            raise ValueError("batch must be positive")
        key = (self.device, self.config, batch)
        estimate = _FORWARD_CACHE.get(key)
        if estimate is None:
            estimate = self._forward(batch)
            _FORWARD_CACHE.put(key, estimate)
        return estimate

    def _forward(self, batch: int) -> DlrmForwardEstimate:
        acc = ActivityAccumulator()
        breakdown: Dict[str, float] = {}
        breakdown["embedding"] = self.embedding_time(batch, acc)
        breakdown["bottom_mlp"] = self._mlp(
            acc, batch, self.config.dense_features, self.config.bottom_mlp
        )
        breakdown["interaction"] = self.interaction_time(batch, acc)
        breakdown["top_mlp"] = self._mlp(
            acc, batch, self.config.interaction_width, self.config.top_mlp
        )
        total = sum(breakdown.values())
        profile = acc.profile(total)
        power = PowerModel(self.device.spec.power).power(profile)
        return DlrmForwardEstimate(
            device=self.device.name,
            config_name=self.config.name,
            batch=batch,
            time=total,
            breakdown=MappingProxyType(breakdown),
            average_power=power,
        )


# ----------------------------------------------------------------------
# Functional reference (numpy) for correctness tests
# ----------------------------------------------------------------------
def reference_dlrm_forward(
    config: DlrmConfig,
    dense: np.ndarray,
    tables: np.ndarray,
    indices: np.ndarray,
    weights: Dict[str, Sequence[np.ndarray]],
) -> np.ndarray:
    """Numerically execute a (small) DLRM-DCNv2 forward pass.

    ``weights`` supplies ``"bottom"``, ``"top"`` (lists of [in, out]
    matrices) and ``"cross_u"``/``"cross_v"``/``"cross_b"`` (per cross
    layer).  Returns the pre-sigmoid logits ``[batch, 1]``.
    """
    x = np.asarray(dense, dtype=np.float64)
    for w in weights["bottom"]:
        x = relu(x @ w)
    bags = reference_embedding_bag(tables, indices)  # [B, T, D]
    features = np.concatenate([x[:, None, :], bags], axis=1)  # [B, T+1, D]
    x0 = features.reshape(features.shape[0], -1)
    xc = x0
    for u, v, b in zip(weights["cross_u"], weights["cross_v"], weights["cross_b"]):
        xc = x0 * ((xc @ v) @ u + b) + xc
    out = xc
    for i, w in enumerate(weights["top"]):
        out = out @ w
        if i < len(weights["top"]) - 1:
            out = relu(out)
    return out
