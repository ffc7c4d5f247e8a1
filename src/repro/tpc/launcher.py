"""Multi-TPC kernel launch model.

A kernel launch partitions the index space across TPCs (Figure 3); the
launch time is governed by the slowest TPC, subject to three bounds:

1. the TPC pipeline itself (the scoreboard simulation);
2. the per-TPC sustained memory bandwidth (DMA/load-port limit) -- this
   is why STREAM needs 11-15 TPCs to saturate chip bandwidth in
   Figure 8(c);
3. chip-wide HBM bandwidth, streaming or random as appropriate.

A fixed kernel-launch overhead is added per launch, which is what the
SingleTable embedding operator pays N times for N tables (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.memory import HbmModel
from repro.hw.spec import DeviceSpec, GAUDI2_SPEC
from repro.tpc.index_space import partition_members
from repro.tpc.kernel import TpcKernel
from repro.tpc.pipeline import PipelineResult, VliwPipeline


@dataclass(frozen=True)
class KernelLaunchResult:
    """Timing and utilization of one kernel launch."""

    kernel_name: str
    num_tpcs: int
    time: float
    compute_time: float
    port_time: float
    hbm_time: float
    launch_overhead: float
    achieved_flops: float
    useful_bytes: float
    moved_bytes: float
    bandwidth_utilization: float
    bottleneck: str
    pipeline: Optional[PipelineResult] = None

    @property
    def achieved_bandwidth(self) -> float:
        busy = self.time - self.launch_overhead
        return self.useful_bytes / busy if busy > 0 else 0.0


class TpcLauncher:
    """Launches TPC kernels onto a (model of a) Gaudi device."""

    def __init__(self, spec: DeviceSpec = GAUDI2_SPEC) -> None:
        self.spec = spec
        self.hbm = HbmModel(spec.memory)
        self.pipeline = VliwPipeline(spec.vector)

    def launch(
        self,
        kernel: TpcKernel,
        num_tpcs: Optional[int] = None,
        include_launch_overhead: bool = True,
        working_set_bytes: float = float("inf"),
    ) -> KernelLaunchResult:
        """Run ``kernel`` on ``num_tpcs`` TPCs (default: all 24).

        ``kernel.trips`` is interpreted as the *total* trip count of the
        workload; trips are distributed round-robin across TPCs.
        """
        max_tpcs = self.spec.vector.num_cores
        tpcs = max_tpcs if num_tpcs is None else num_tpcs
        if not 0 < tpcs <= max_tpcs:
            raise ValueError(f"num_tpcs must be in (0, {max_tpcs}], got {tpcs}")

        trips_per_tpc = max(partition_members(kernel.trips, tpcs))
        pipeline_result = self.pipeline.simulate(kernel.body, trips_per_tpc)
        compute_time = pipeline_result.time_seconds(self.spec.vector.clock_hz)

        granule = self.spec.memory.min_access_bytes
        moved_per_tpc = kernel.moved_bytes_per_trip(granule) * trips_per_tpc
        port_time = moved_per_tpc / self.spec.vector.per_core_stream_bw

        total_useful = kernel.useful_bytes_per_trip() * kernel.trips
        total_moved = kernel.moved_bytes_per_trip(granule) * kernel.trips
        if kernel.has_random_access:
            chip_bw = self.spec.memory.bandwidth * self.spec.memory.random_efficiency
            if self.spec.memory.sram_is_cache and working_set_bytes <= self.spec.memory.sram_bytes:
                chip_bw = self.spec.memory.bandwidth
        else:
            chip_bw = self.hbm.stream_bandwidth(kernel.num_streams)
        hbm_time = total_moved / chip_bw

        busy_time = max(compute_time, port_time, hbm_time)
        overhead = self.spec.kernel_launch_overhead if include_launch_overhead else 0.0
        time = busy_time + overhead

        if busy_time == compute_time:
            bottleneck = "tpc-pipeline"
        elif busy_time == port_time:
            bottleneck = "tpc-memory-port"
        else:
            bottleneck = "hbm-bandwidth"

        total_flops = kernel.flops_per_trip * kernel.trips
        return KernelLaunchResult(
            kernel_name=kernel.name,
            num_tpcs=tpcs,
            time=time,
            compute_time=compute_time,
            port_time=port_time,
            hbm_time=hbm_time,
            launch_overhead=overhead,
            achieved_flops=total_flops / busy_time if busy_time > 0 else 0.0,
            useful_bytes=total_useful,
            moved_bytes=total_moved,
            bandwidth_utilization=(
                (total_useful / busy_time) / self.spec.memory.bandwidth
                if busy_time > 0
                else 0.0
            ),
            bottleneck=bottleneck,
            pipeline=pipeline_result,
        )
