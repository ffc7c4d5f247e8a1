"""HCCL / NCCL-style collective library facades.

:class:`HcclLibrary` and :class:`NcclLibrary` bind a topology, the
fabric's protocol efficiency and advertised per-device bandwidth (both
from the device's :class:`~repro.hw.spec.InterconnectSpec`), and
per-operation tuning factors, and report results in the NCCL tests
format the paper uses (algorithm bandwidth and bus bandwidth).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from typing import Dict, Hashable

from repro.comm.busbw import bus_bandwidth_factor
from repro.core.memo import CostCache
from repro.hw.spec import InterconnectSpec
from repro.comm.collectives import (
    CollectiveOp,
    CollectiveResult,
    collective_time,
    effective_participants,
)
from repro.comm.topology import (
    DegradedMeshTopology,
    DegradedSwitchTopology,
    FabricHealth,
    P2PMeshTopology,
    SwitchTopology,
    Topology,
)

#: Per-operation software efficiency on top of the protocol efficiency.
#: HCCL's direct-exchange kernels are uniformly tuned; NCCL's AlltoAll
#: path (send/recv based) is the one collective the paper's data shows
#: the switch losing its usual edge on.
_DEFAULT_OP_EFFICIENCY_HCCL: Dict[CollectiveOp, float] = {op: 1.0 for op in CollectiveOp}
_DEFAULT_OP_EFFICIENCY_NCCL: Dict[CollectiveOp, float] = {
    **{op: 1.0 for op in CollectiveOp},
    CollectiveOp.ALL_TO_ALL: 0.82,
    CollectiveOp.REDUCE: 0.95,
}


#: Collective memos by static pricing identity (see
#: :meth:`CollectiveLibrary.pricing_key`): every library rebuilt for
#: the same fabric -- per node, per model, per degraded view -- shares
#: one memo.  Strong references, so ``clear_caches`` keeps finding them.
_SHARED_RUN_CACHES: Dict[Hashable, CostCache] = {}


def _shared_run_cache(library: "CollectiveLibrary") -> CostCache:
    key = library.pricing_key()
    cache = _SHARED_RUN_CACHES.get(key)
    if cache is None:
        cache = _SHARED_RUN_CACHES[key] = CostCache(
            f"comm.{library.name.lower()}", maxsize=2048
        )
    return cache


@dataclass(frozen=True)
class CollectiveReport:
    """One row of an ``nccl-tests``-style report."""

    op: CollectiveOp
    size_bytes: float
    participants: int
    time: float
    algorithm_bandwidth: float
    bus_bandwidth: float
    #: Bus bandwidth as a fraction of the fabric's advertised per-device
    #: bandwidth (``InterconnectSpec.per_device_bandwidth``).
    bus_utilization: float


class CollectiveLibrary:
    """A collective library bound to one topology."""

    def __init__(
        self,
        topology: Topology,
        protocol_efficiency: float,
        op_efficiency: Dict[CollectiveOp, float],
        name: str,
        per_device_bandwidth: float,
    ) -> None:
        self.topology = topology
        self.protocol_efficiency = protocol_efficiency
        self.op_efficiency = dict(op_efficiency)
        self.name = name
        #: Advertised per-device fabric bandwidth (Table 1), the
        #: denominator of ``bus_utilization``.
        self.per_device_bandwidth = per_device_bandwidth
        self._run_cache = _shared_run_cache(self)

    def pricing_key(self) -> Hashable:
        """Static pricing identity: everything a collective's cost
        depends on except the fabric's live fault state, which per-call
        keys carry through ``topology.cache_key()``.  Libraries with
        equal keys price identically, so they share one memo."""
        topology = self.topology
        return (
            type(self), self.name, self.protocol_efficiency, self.per_device_bandwidth,
            tuple(sorted((op.value, eff) for op, eff in self.op_efficiency.items())),
            type(topology),
            tuple(getattr(topology, f.name) for f in fields(topology)),
        )

    def run(self, op: CollectiveOp, size_bytes: float, participants: int) -> CollectiveReport:
        # Degraded topology views price against live fault state; their
        # cache_key() snapshots it, so each fault state memoizes apart.
        key = (op, float(size_bytes), participants, self.topology.cache_key())
        report = self._run_cache.get(key)
        if report is not None:
            return report
        efficiency = self.protocol_efficiency * self.op_efficiency.get(op, 1.0)
        result: CollectiveResult = collective_time(
            op, size_bytes, participants, self.topology, efficiency
        )
        algbw = result.algorithm_bandwidth
        busbw = algbw * bus_bandwidth_factor(op, participants)
        report = CollectiveReport(
            op=op,
            size_bytes=size_bytes,
            participants=participants,
            time=result.time,
            algorithm_bandwidth=algbw,
            bus_bandwidth=busbw,
            bus_utilization=busbw / self.per_device_bandwidth,
        )
        self._run_cache.put(key, report)
        return report

    # -- fault awareness ----------------------------------------------
    def with_topology(self, topology: Topology) -> "CollectiveLibrary":
        """The same library (protocol/op tuning intact) rebound to
        another topology, e.g. a degraded view of the original."""
        other = copy.copy(self)
        other.topology = topology
        other.op_efficiency = dict(self.op_efficiency)
        other._run_cache = _shared_run_cache(other)
        return other

    def degraded(self, health: FabricHealth) -> "CollectiveLibrary":
        """Rebind onto a fault-state view of the current topology."""
        if isinstance(self.topology, P2PMeshTopology):
            return self.with_topology(DegradedMeshTopology(self.topology, health))
        if isinstance(self.topology, SwitchTopology):
            return self.with_topology(DegradedSwitchTopology(self.topology, health))
        raise TypeError(f"unsupported topology {type(self.topology).__name__}")

    def alive_participants(self, requested: int) -> int:
        """Participants actually reachable on the bound topology."""
        return effective_participants(self.topology, requested)

    # Convenience wrappers matching the library APIs.
    def all_reduce(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_REDUCE, size_bytes, participants)

    def all_gather(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_GATHER, size_bytes, participants)

    def reduce_scatter(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.REDUCE_SCATTER, size_bytes, participants)

    def all_to_all(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.ALL_TO_ALL, size_bytes, participants)

    def reduce(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.REDUCE, size_bytes, participants)

    def broadcast(self, size_bytes: float, participants: int) -> CollectiveReport:
        return self.run(CollectiveOp.BROADCAST, size_bytes, participants)


class HcclLibrary(CollectiveLibrary):
    """Intel's Habana Collective Communications Library on the P2P mesh."""

    def __init__(self, topology: P2PMeshTopology, interconnect: InterconnectSpec) -> None:
        super().__init__(
            topology=topology,
            protocol_efficiency=interconnect.protocol_efficiency,
            op_efficiency=_DEFAULT_OP_EFFICIENCY_HCCL,
            name="HCCL",
            per_device_bandwidth=interconnect.per_device_bandwidth,
        )


class NcclLibrary(CollectiveLibrary):
    """NVIDIA's NCCL over NVSwitch."""

    def __init__(self, topology: SwitchTopology, interconnect: InterconnectSpec) -> None:
        super().__init__(
            topology=topology,
            protocol_efficiency=interconnect.protocol_efficiency,
            op_efficiency=_DEFAULT_OP_EFFICIENCY_NCCL,
            name="NCCL",
            per_device_bandwidth=interconnect.per_device_bandwidth,
        )
