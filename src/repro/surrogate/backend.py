"""``SurrogateBackend``: fitted predictors behind the Backend protocol.

Registering ``<base>@surrogate`` (done lazily by the backend registry
the first time such a name is resolved) exposes a drop-in platform
whose GEMM and collective cost queries are served by the certified
fitted predictors of :mod:`repro.surrogate.fitting`, falling back to
the exact base backend outside the fitted domain (non-BF16 dtypes,
off-lattice topology degrees, degraded fabrics).  The facade *is* the
base platform in every other respect: it shares the base ``DeviceSpec``
object (so spec lookups, attention closed forms, and the power model
are identical) and copies the base kernel-dialect attributes.

Fitted models are cached process-wide, so every instance -- including
``fresh=True`` ones from the conformance suite -- serves bit-identical
predictions from one fit.

Runtime honesty is enforced by the audit layer: a seeded fraction of
fast-path predictions is recomputed through the exact model and held to
the surface's certified error bound (``SurrogateEquivalence`` check;
strict mode raises).  All traffic is counted in
:data:`SURROGATE_COUNTERS` for ``repro top``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Union

from repro.audit.auditor import get_auditor
from repro.comm.api import CollectiveLibrary, CollectiveReport
from repro.comm.busbw import bus_bandwidth_factor
from repro.hw.backend import BackendInfo, REGISTRY, get_backend, register_backend, resolve_backend
from repro.hw.device import Device, MatmulResult
from repro.hw.spec import DType, register_spec
from repro.surrogate.fitting import SurrogateModel, fit_backend
from repro.surrogate.surfaces import COLLECTIVE_PARTICIPANTS

__all__ = [
    "SURROGATE_COUNTERS",
    "SurrogateBackend",
    "SurrogateCollectiveLibrary",
    "ensure_registered",
    "fitted_models",
    "get_surrogate_model",
    "set_surrogate_model",
]

#: Registry-key suffix that requests the surrogate facade of a backend.
SUFFIX = "@surrogate"

#: Process-wide fast-path/fallback/spot-check counters (``repro top``).
SURROGATE_COUNTERS: Counter = Counter()

#: Process-wide fitted models, keyed by base backend key.
_MODELS: Dict[str, SurrogateModel] = {}


def get_surrogate_model(
    base_key: str, workers: Optional[Union[int, str]] = None
) -> SurrogateModel:
    """The (process-cached) fitted model for one base backend."""
    base_key = resolve_backend(base_key)
    model = _MODELS.get(base_key)
    if model is None:
        model = fit_backend(base_key, workers=workers)
        _MODELS[base_key] = model
    return model


def set_surrogate_model(base_key: str, model: SurrogateModel) -> None:
    """Install a model (e.g. loaded from an artifact) as the process's
    fitted model for ``base_key``.  Existing backend instances pick it
    up on their next uncached query."""
    _MODELS[resolve_backend(base_key)] = model
    # Invalidate the registry's cached instance so new lookups bind the
    # installed model rather than a previously fitted one.
    REGISTRY._instances.pop(f"{resolve_backend(base_key)}{SUFFIX}", None)


def fitted_models() -> Dict[str, SurrogateModel]:
    """Read-only view of the models fitted so far (may be empty)."""
    return dict(_MODELS)


class SurrogateCollectiveLibrary(CollectiveLibrary):
    """Collective library serving fitted per-op tables.

    Off-table traffic -- participant counts outside the fitted lattice,
    sizes outside its size range (the table clamps at its edges, which
    would price a 2.6 GB AllReduce as a 1 GiB one), unknown ops -- goes
    to the exact library; rebinding onto another
    topology (including every degraded fault-state view) returns the
    *exact* library, because fitted tables only describe the healthy
    fabric they were sampled on.
    """

    def __init__(self, exact: CollectiveLibrary, model: SurrogateModel) -> None:
        super().__init__(
            topology=exact.topology,
            protocol_efficiency=exact.protocol_efficiency,
            op_efficiency=exact.op_efficiency,
            name=f"{exact.name}{SUFFIX}",
        )
        self._exact = exact
        self._model = model

    def run(self, op, size_bytes: float, participants: int) -> CollectiveReport:
        surface = f"collective.{op.value}"
        if (
            surface not in self._model.surfaces
            or participants not in COLLECTIVE_PARTICIPANTS
            or not self._in_size_range(surface, size_bytes)
        ):
            SURROGATE_COUNTERS["collective.fallback"] += 1
            return self._exact.run(op, size_bytes, participants)
        time = float(self._model.collective_time(op.value, float(size_bytes), participants))
        SURROGATE_COUNTERS["collective.predicted"] += 1
        auditor = get_auditor()
        if auditor is not None and auditor.should_verify_surrogate():
            exact_time = self._exact.run(op, size_bytes, participants).time
            passed = auditor.on_surrogate_result(
                surface, (float(size_bytes), participants), time, exact_time,
                self._model.tolerance(surface),
            )
            SURROGATE_COUNTERS["spot.pass" if passed else "spot.fail"] += 1
        algbw = size_bytes / time if time > 0 else 0.0
        busbw = algbw * bus_bandwidth_factor(op, participants)
        return CollectiveReport(
            op=op,
            size_bytes=size_bytes,
            participants=participants,
            time=time,
            algorithm_bandwidth=algbw,
            bus_bandwidth=busbw,
            bus_utilization=busbw / self.NOMINAL_BANDWIDTH,
        )

    def _in_size_range(self, surface: str, size_bytes: float) -> bool:
        sizes = self._model.predictor(surface).axes[0]["values"]
        return sizes[0] <= size_bytes <= sizes[-1]

    def with_topology(self, topology) -> CollectiveLibrary:
        # Fault-state and what-if views are priced exactly.
        return self._exact.with_topology(topology)


class SurrogateBackend(Device):
    """Drop-in backend facade over one base platform's fitted model."""

    def __init__(self, base_key: str) -> None:
        self.base_key = resolve_backend(base_key)
        base = get_backend(self.base_key)
        super().__init__(base.spec)
        self.family = base.family
        self.decode_attention = base.decode_attention
        self.smi_style = base.smi_style
        self.attention_efficiency = base.attention_efficiency
        self._base = base
        # Fitting is triggered here (process-cached), so the first
        # instantiation pays the fit and every later one is free.
        get_surrogate_model(self.base_key)

    @property
    def model(self) -> SurrogateModel:
        return get_surrogate_model(self.base_key)

    def __repr__(self) -> str:
        return f"SurrogateBackend({self.base_key})"

    # -- GEMM fast path ------------------------------------------------
    def _gemm_uncached(
        self, m: int, k: int, n: int, dtype: DType, batch: int
    ) -> MatmulResult:
        model = self.model
        if dtype is not DType.BF16 or not model.gemm_in_domain(m, k, n, batch):
            SURROGATE_COUNTERS["gemm.fallback"] += 1
            return self._base.gemm(m, k, n, dtype=dtype, batch=batch)
        out = model.gemm_predict(m, k, n, batch)
        time = float(out["time"])
        SURROGATE_COUNTERS["gemm.predicted"] += 1
        auditor = get_auditor()
        if auditor is not None and auditor.should_verify_surrogate():
            exact_time = self._base.gemm(m, k, n, dtype=dtype, batch=batch).time
            passed = auditor.on_surrogate_result(
                "gemm", (m, k, n, batch), time, exact_time,
                model.tolerance("gemm"),
            )
            SURROGATE_COUNTERS["spot.pass" if passed else "spot.fail"] += 1
        flops = 2.0 * batch * m * k * n
        achieved = flops / time if time > 0 else 0.0
        peak = self.spec.matrix.peak(dtype)
        label = model.predictor("gemm").labels()[int(out["piece"])]
        return MatmulResult(
            m=m,
            k=k,
            n=n,
            batch=batch,
            dtype=dtype,
            time=time,
            achieved_flops=achieved,
            utilization=achieved / peak,
            memory_bound=bool(out["memory_bound"]),
            active_mac_fraction=float(out["mac_fraction"]),
            config_label=label,
        )

    # -- fabric --------------------------------------------------------
    def collective_library(self, num_devices: int = 8):
        exact = self._base.collective_library(num_devices)
        if num_devices != max(COLLECTIVE_PARTICIPANTS):
            # Tables were sampled on the full healthy node fabric.
            return exact
        return SurrogateCollectiveLibrary(exact, self.model)


def ensure_registered(base_name: str) -> str:
    """Register ``<base>@surrogate`` (idempotent); returns its key.

    Called lazily by :meth:`repro.hw.backend.BackendRegistry.resolve`
    the first time a ``...@surrogate`` name is looked up.  Registration
    is declaration-only -- fitting happens at first instantiation.
    """
    base_key = resolve_backend(base_name)
    key = f"{base_key}{SUFFIX}"
    if key in REGISTRY.keys():
        return key
    info = REGISTRY.info(base_key)
    spec = REGISTRY.spec(base_key)
    register_backend(BackendInfo(
        key=key,
        display_name=f"{info.display_name}{SUFFIX}",
        vendor=info.vendor,
        family=info.family,
        factory=lambda base_key=base_key: SurrogateBackend(base_key),
        spec=spec,
        summary=f"Certified fitted surrogate of {info.display_name} "
                "(ISSUE 10: design-space sweeps beyond exact-simulator speed)",
    ))
    # Spec lookups must return the *same* object as the base platform.
    register_spec(key, spec)
    return key
