"""The process cache of fitted surrogate models.

:func:`get_surrogate_model` fits a base backend's model once per
process (:func:`repro.surrogate.fitting.fit_backend`) and hands the
same object to every later caller, so the ``design_space`` figure pays
the fit on its first run only.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Union

from repro.comm.api import CollectiveLibrary, CollectiveReport
from repro.comm.busbw import bus_bandwidth_factor
from repro.hw.backend import resolve_backend
from repro.surrogate.fitting import SurrogateModel, fit_backend
from repro.surrogate.surfaces import COLLECTIVE_PARTICIPANTS

__all__ = [
    "SURROGATE_COUNTERS",
    "SurrogateCollectiveLibrary",
    "get_surrogate_model",
]

#: Kept only because perfbench clears it; the next perfbench change drops that first.
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


# Kept only because perfbench wraps ``run``; the next perfbench change drops that first.
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
            name=f"{exact.name}@surrogate",
            per_device_bandwidth=exact.per_device_bandwidth,
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
        algbw = size_bytes / time if time > 0 else 0.0
        busbw = algbw * bus_bandwidth_factor(op, participants)
        return CollectiveReport(
            op=op,
            size_bytes=size_bytes,
            participants=participants,
            time=time,
            algorithm_bandwidth=algbw,
            bus_bandwidth=busbw,
            bus_utilization=busbw / self.per_device_bandwidth,
        )

    def _in_size_range(self, surface: str, size_bytes: float) -> bool:
        sizes = self._model.predictor(surface).axes[0]["values"]
        return sizes[0] <= size_bytes <= sizes[-1]

    def with_topology(self, topology) -> CollectiveLibrary:
        # Fault-state and what-if views are priced exactly.
        return self._exact.with_topology(topology)
