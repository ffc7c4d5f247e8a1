"""Tensor parallelism (Megatron-style) over the modelled fabrics.

Column/row-parallel sharding of the attention and MLP blocks induces
two AllReduces of the activation tensor per decoder layer, which is
where the interconnect contrast of Section 3.4 reaches end-to-end LLM
serving: the P2P mesh's AllReduce bandwidth grows with the number of
participating devices, so Gaudi's multi-device speedups *increase*
with TP degree (Figure 12(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.audit import get_auditor
from repro.comm import CollectiveLibrary
from repro.hw.device import Device


@dataclass
class TensorParallelConfig:
    """TP degree plus the collective library serving it.

    Pricing through it is pure: an observer learns which AllReduces a
    phase ran from :meth:`repro.models.llama.LlamaCostModel.collectives`.
    """

    degree: int = 1
    library: Optional[CollectiveLibrary] = None

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
        return time
