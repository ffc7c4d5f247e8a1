"""Device facades tying the component models together.

:class:`Gaudi2Device` and :class:`A100Device` expose the
:class:`~repro.hw.backend.Backend` protocol (GEMM execution, HBM model,
vector-engine model, power model, collective fabric, launch overheads)
so kernels, the graph compiler, and the serving stack can be written
once and run against any registered platform -- the same property the
paper attributes to PyTorch's device abstraction (Figure 2(a)).

Platform lookup goes through the string-keyed registry of
:mod:`repro.hw.backend` (:func:`~repro.hw.backend.get_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.memo import ClosureCache, CostCache
from repro.hw.memory import HbmModel
from repro.hw.mme import MmeModel
from repro.hw.power import PowerModel
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC, DeviceSpec, DType
from repro.hw.tensorcore import TensorCoreModel
from repro.hw.vector_unit import VectorUnitModel


@dataclass(frozen=True)
class MatmulResult:
    """Device-independent GEMM execution estimate."""

    m: int
    k: int
    n: int
    batch: int
    dtype: DType
    time: float
    achieved_flops: float
    utilization: float
    memory_bound: bool
    #: Fraction of the matrix engine's MAC array powered during the op
    #: (less than 1.0 only for power-gated MME geometries).
    active_mac_fraction: float
    #: Human-readable description of the chosen engine configuration.
    config_label: str

    @property
    def flops(self) -> float:
        return 2.0 * self.batch * self.m * self.k * self.n


class Device:
    """Common base class of every modelled platform.

    Subclasses fill in the class-level capability attributes (what the
    :class:`~repro.hw.backend.Backend` protocol calls the kernel
    dialect) plus the :meth:`_gemm_uncached` hook; everything else --
    memory, vector, power models, caches, fabric -- derives from the
    spec sheet.
    """

    #: Kernel-dialect family: which kernel implementations apply
    #: ("gaudi" = graph-compiler fused MME + TPC-C; "cuda" = SIMT
    #: kernels + tensor cores).
    family = ""
    #: Default paged decode-attention implementation
    #: (a :class:`repro.models.llama.DecodeAttention` value string).
    decode_attention = "paged-opt"
    #: Which smi-style readout the tools layer renders.
    smi_style = "hl-smi"
    #: Fraction of matrix peak a fused dense-attention kernel sustains.
    attention_efficiency = 0.5

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.hbm = HbmModel(spec.memory)
        self.vector = VectorUnitModel(spec.vector)
        self.power = PowerModel(spec.power)
        # Shape-keyed result caches (the device model is stateless, so
        # every estimate is a pure function of the key).
        self._gemm_cache = CostCache(f"device.gemm[{spec.name}]", maxsize=16384)
        self._attention_cache = CostCache(f"kernels.attention[{spec.name}]")
        self._stream_cache = CostCache(f"kernels.stream[{spec.name}]")
        self._gather_scatter_cache = CostCache(f"kernels.gather_scatter[{spec.name}]")
        self._gemm_rows = ClosureCache(f"device.gemm_row[{spec.name}]")

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec.name})"

    # -- interface -----------------------------------------------------
    def gemm(
        self, m: int, k: int, n: int, dtype: DType = DType.BF16, batch: int = 1
    ) -> MatmulResult:
        """Execute one (optionally batched) GEMM on the matrix engine."""
        key = (m, k, n, dtype, batch)
        result = self._gemm_cache.get(key)
        if result is None:
            result = self._gemm_uncached(m, k, n, dtype, batch)
            self._gemm_cache.put(key, result)
        return result

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        """Subclass hook: derive one GEMM estimate from scratch."""
        raise NotImplementedError

    def gemm_row(
        self, k: int, n: int, dtype: DType = DType.BF16
    ) -> Callable[[int], Tuple[float, float]]:
        """``price(m) -> (time, active_mac_fraction)`` of the unbatched
        GEMM ``(m, k, n)``, bit-identical to :meth:`gemm` -- the compiled
        prefill pricer's per-shape row, shared per ``(k, n, dtype)``."""
        key = (k, n, dtype)
        row = self._gemm_rows.get(key)
        if row is None:
            row = self._gemm_row_uncached(k, n, dtype)
            self._gemm_rows.put(key, row)
        return row

    def _gemm_row_uncached(
        self, k: int, n: int, dtype: DType
    ) -> Callable[[int], Tuple[float, float]]:
        """Subclass hook: a row priced through :meth:`gemm` itself.  A
        device whose matrix model can price ``m`` without building
        result objects overrides this."""

        def price(m: int) -> Tuple[float, float]:
            result = self.gemm(m, k, n, dtype)
            return result.time, result.active_mac_fraction

        return price

    def matrix_utilization(self, m: int, k: int, n: int, dtype: DType = DType.BF16) -> float:
        """Achieved/peak utilization of one GEMM shape."""
        return self.gemm(m, k, n, dtype).utilization

    @property
    def kernel_launch_overhead(self) -> float:
        return self.spec.kernel_launch_overhead

    @property
    def peak_matrix_flops(self) -> float:
        return self.spec.matrix.peak(DType.BF16)

    @property
    def peak_vector_flops(self) -> float:
        return self.spec.vector.peak(DType.BF16)

    @property
    def peak_bandwidth(self) -> float:
        return self.spec.memory.bandwidth

    def collective_library(self, num_devices: int = 8):
        """The healthy collective library for this platform's fabric
        (HCCL on a P2P mesh, NCCL behind a switch), built from the
        spec's :class:`~repro.hw.spec.InterconnectSpec`.  Fault-aware
        callers rebind it with :meth:`~repro.comm.CollectiveLibrary.degraded`."""
        from repro.comm.api import HcclLibrary, NcclLibrary
        from repro.comm.topology import P2PMeshTopology, SwitchTopology

        interconnect = self.spec.interconnect
        if interconnect.kind == "p2p-mesh":
            return HcclLibrary(P2PMeshTopology.from_spec(self.spec, num_devices), interconnect)
        return NcclLibrary(SwitchTopology.from_spec(self.spec, num_devices), interconnect)


class Gaudi2Device(Device):
    """Intel Gaudi-2: reconfigurable MME + 24 programmable TPCs."""

    family = "gaudi"
    decode_attention = "paged-opt"
    smi_style = "hl-smi"
    attention_efficiency = 0.48

    def __init__(self, spec: DeviceSpec = GAUDI2_SPEC, mme_configurable: bool = True) -> None:
        super().__init__(spec)
        self.mme = MmeModel(spec, configurable=mme_configurable)

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        estimate = (
            self.mme.gemm(m, k, n, dtype)
            if batch == 1
            else self.mme.batched_gemm(batch, m, k, n, dtype)
        )
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=estimate.time,
            achieved_flops=estimate.achieved_flops,
            utilization=estimate.utilization,
            memory_bound=estimate.memory_bound,
            active_mac_fraction=estimate.active_mac_fraction,
            config_label=f"MME {estimate.config_label}",
        )

    def _gemm_row_uncached(self, k, n, dtype):
        # A subclass that re-prices GEMMs keeps the generic row.
        if type(self)._gemm_uncached is not Gaudi2Device._gemm_uncached:
            return super()._gemm_row_uncached(k, n, dtype)
        return self.mme.row(k, n, dtype)


class A100Device(Device):
    """NVIDIA A100: Tensor Cores + 108 SMs of SIMD cores."""

    family = "cuda"
    decode_attention = "paged-cuda"
    smi_style = "nvidia-smi"
    attention_efficiency = 0.55

    def __init__(self, spec: DeviceSpec = A100_SPEC) -> None:
        super().__init__(spec)
        self.tensorcore = TensorCoreModel(spec)

    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        estimate = (
            self.tensorcore.gemm(m, k, n, dtype)
            if batch == 1
            else self.tensorcore.batched_gemm(batch, m, k, n, dtype)
        )
        tm, tn = estimate.tile
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=estimate.time,
            achieved_flops=estimate.achieved_flops,
            utilization=estimate.utilization,
            memory_bound=estimate.memory_bound,
            active_mac_fraction=1.0,
            config_label=f"CTA {tm}x{tn}, {estimate.waves} waves",
        )

    def _gemm_row_uncached(self, k, n, dtype):
        # A subclass that re-prices GEMMs keeps the generic row.
        if type(self)._gemm_uncached is not A100Device._gemm_uncached:
            return super()._gemm_row_uncached(k, n, dtype)
        return self.tensorcore.row(k, n, dtype)
