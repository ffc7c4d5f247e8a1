"""Tensor parallelism (Megatron-style) over the modelled fabrics.

Column/row-parallel sharding of the attention and MLP blocks induces
two AllReduces of the activation tensor per decoder layer, which is
where the interconnect contrast of Section 3.4 reaches end-to-end LLM
serving: the P2P mesh's AllReduce bandwidth grows with the number of
participating devices, so Gaudi's multi-device speedups *increase*
with TP degree (Figure 12(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from repro.audit import get_auditor
from repro.comm import CollectiveLibrary
from repro.hw.device import Device


@dataclass
class TensorParallelConfig:
    """TP degree plus the collective library serving it.

    With observability bound (:meth:`bind_observability`), every
    AllReduce is counted in the metrics registry and queued as a
    pending ``(op, seconds, bytes)`` event the serving engine drains
    into collective spans on its virtual clock.
    """

    degree: int = 1
    library: Optional[CollectiveLibrary] = None
    #: Metrics registry recording per-collective counters (None = off).
    metrics: Optional[object] = field(default=None, repr=False, compare=False)
    #: Whether comm events queue for :meth:`drain_comm_events` (set it
    #: only when something drains them, or the queue grows unbounded).
    queue_events: bool = field(default=False, repr=False, compare=False)
    #: Comm events since the last :meth:`drain_comm_events` call; only
    #: populated while observability is bound.
    _pending: List[Tuple[str, float, float]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("TP degree must be >= 1")

    @classmethod
    def for_device(cls, device: Device, degree: int) -> "TensorParallelConfig":
        if degree == 1:
            return cls(degree=1, library=None)
        # Every backend names its own fabric library (Backend protocol).
        if not hasattr(device, "collective_library"):
            raise TypeError(f"unsupported device {device!r}")
        return cls(degree=degree, library=device.collective_library())

    def pricing_key(self) -> Hashable:
        """Static pricing identity: the degree plus the library's
        :meth:`~repro.comm.CollectiveLibrary.pricing_key` (``None``
        without a library).  The fabric's live fault state is not part
        of it; phase caches key on that per call."""
        library = self.library
        return (self.degree, None if library is None else library.pricing_key())

    def shard(self, size: int, what: str = "dimension") -> int:
        """Split a sharded dimension, validating divisibility."""
        if size % self.degree != 0:
            raise ValueError(
                f"{what} of {size} not divisible by TP degree {self.degree}"
            )
        return size // self.degree

    def effective_degree(self) -> int:
        """TP participants still reachable on the bound fabric.

        With a degraded topology view bound (see
        :class:`repro.comm.DegradedMeshTopology`), failed devices drop
        out of the collective; healthy fabrics report the full degree.
        """
        if self.degree == 1 or self.library is None:
            return self.degree
        return self.library.alive_participants(self.degree)

    def allreduce_time(self, size_bytes: float) -> float:
        """One activation AllReduce across the (possibly degraded) TP
        group; with fewer than two survivors there is no exchange."""
        if self.degree == 1:
            return 0.0
        assert self.library is not None
        participants = self.effective_degree()
        if participants < 2:
            return 0.0
        time = self.library.all_reduce(size_bytes, participants).time
        auditor = get_auditor()
        if auditor is not None:
            auditor.check_collective(time, size_bytes, participants, self.degree)
        if self.metrics is not None:
            self.metrics.counter("comm.allreduce.calls").inc()
            self.metrics.counter("comm.allreduce.bytes").inc(size_bytes)
            self.metrics.histogram("comm.allreduce.seconds").observe(time)
        if self.queue_events:
            self._pending.append(("all_reduce", time, size_bytes))
        return time

    # -- observability -----------------------------------------------------
    def bind_observability(self, metrics, queue_events: bool = False) -> None:
        """Attach a metrics registry (or None to detach); with
        ``queue_events`` set, comm events also queue for
        :meth:`drain_comm_events`."""
        self.metrics = metrics
        self.queue_events = queue_events
        self._pending.clear()

    def drain_comm_events(self) -> List[Tuple[str, float, float]]:
        """Return and clear the ``(op, seconds, bytes)`` events queued
        since the last drain (the engine turns them into spans)."""
        events = list(self._pending)
        self._pending.clear()
        return events
