"""Multi-TPC launch model (Figure 8(c) mechanics) and the round-robin
trip partitioning across TPCs (Figure 3)."""

from dataclasses import replace

import pytest

from repro.hw.spec import GAUDI2_SPEC
from repro.tpc.builder import TpcKernelBuilder
from repro.tpc.isa import Opcode
from repro.tpc.launcher import TpcLauncher, partition_members


@pytest.fixture(scope="module")
def launcher():
    return TpcLauncher(GAUDI2_SPEC)


def _triad_kernel(iterations, unroll=4):
    def body(b):
        x = b.load_tensor("a")
        y = b.load_tensor("b")
        r = b.vec(Opcode.MAC, x, y)
        b.store_tensor("c", r)

    return TpcKernelBuilder("triad").build_loop(body, iterations=iterations, unroll=unroll)


def _gather_kernel(iterations, access_bytes=256):
    def body(b):
        for _ in range(4):
            b.gather("table", access_bytes=access_bytes)

    return TpcKernelBuilder("gather").build_loop(body, iterations=iterations)


class TestLaunch:
    def test_launch_overhead_included(self, launcher):
        kernel = _triad_kernel(1000)
        with_overhead = launcher.launch(kernel)
        without = launcher.launch(kernel, include_launch_overhead=False)
        assert with_overhead.time - without.time == pytest.approx(
            GAUDI2_SPEC.kernel_launch_overhead
        )

    def test_port_priced_at_the_launching_device_granule(self):
        spec = replace(GAUDI2_SPEC, memory=replace(GAUDI2_SPEC.memory, min_access_bytes=128))
        # 384 B gathers move 384 B at a 128 B granule, 512 B at 256 B.
        result = TpcLauncher(spec).launch(_gather_kernel(25_000, access_bytes=384), num_tpcs=1)
        assert result.moved_bytes == result.useful_bytes
        assert result.port_time == result.moved_bytes / spec.vector.per_core_stream_bw

    def test_invalid_tpc_count_raises(self, launcher):
        kernel = _triad_kernel(100)
        with pytest.raises(ValueError):
            launcher.launch(kernel, num_tpcs=0)
        with pytest.raises(ValueError):
            launcher.launch(kernel, num_tpcs=25)

    def test_bottleneck_labels(self, launcher):
        # Big streaming kernel on all TPCs -> HBM bound.
        big = launcher.launch(_triad_kernel(200_000))
        assert big.bottleneck == "hbm-bandwidth"
        # Same kernel on one TPC -> pipeline or port bound.
        one = launcher.launch(_triad_kernel(10_000), num_tpcs=1)
        assert one.bottleneck in ("tpc-pipeline", "tpc-memory-port")


class TestWeakScaling:
    """Figure 8(c): throughput scales with TPCs until HBM saturates."""

    def test_scaling_then_saturation(self, launcher):
        def gflops(cores):
            kernel = _triad_kernel(8000 * cores)
            return launcher.launch(kernel, num_tpcs=cores).achieved_flops / 1e9

        four, eight, twenty, twentyfour = (gflops(c) for c in (4, 8, 20, 24))
        assert eight == pytest.approx(2 * four, rel=0.1)   # linear region
        assert twentyfour == pytest.approx(twenty, rel=0.05)  # saturated

    def test_triad_saturates_near_670_gflops(self, launcher):
        """Paper: TRIAD saturates at ~670 GFLOPS chip-wide."""
        result = launcher.launch(_triad_kernel(200_000))
        assert result.achieved_flops / 1e9 == pytest.approx(670, rel=0.08)


class TestGatherLaunch:
    def test_gather_marked_random(self, launcher):
        result = launcher.launch(_gather_kernel(50_000))
        assert result.moved_bytes == result.useful_bytes  # 256 B aligned

    def test_gather_peak_utilization_matches_paper(self, launcher):
        """~70 % peak bandwidth utilization for 256 B gathers."""
        result = launcher.launch(_gather_kernel(50_000))
        assert result.bandwidth_utilization == pytest.approx(0.69, abs=0.05)

    def test_small_gather_wastes_bandwidth(self, launcher):
        small = launcher.launch(_gather_kernel(50_000, access_bytes=64))
        assert small.moved_bytes == 4 * small.useful_bytes
        assert small.bandwidth_utilization < 0.25


class TestPartition:
    def test_even_split(self):
        assert partition_members(48, 24) == [2] * 24

    def test_remainder_spread_round_robin(self):
        counts = partition_members(50, 24)
        assert sum(counts) == 50
        assert max(counts) - min(counts) == 1

    def test_fewer_members_than_tpcs(self):
        counts = partition_members(5, 24)
        assert counts.count(1) == 5
        assert counts.count(0) == 19

    def test_zero_members_ok(self):
        assert partition_members(0, 4) == [0, 0, 0, 0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            partition_members(-1, 4)
        with pytest.raises(ValueError):
            partition_members(4, 0)
