"""HCCL / NCCL library facades (Figure 10 headline behaviours)."""

import pytest

from repro.comm import CollectiveOp
from repro.hw.backend import A100, GAUDI2, get_backend

_SIZE = 32 << 20


@pytest.fixture(scope="module")
def hccl():
    return get_backend(GAUDI2).collective_library()


@pytest.fixture(scope="module")
def nccl():
    return get_backend(A100).collective_library()


class TestHeadlines:
    def test_gaudi_wins_5_of_6_at_8_devices(self, hccl, nccl):
        """Paper: Gaudi-2 shows higher busBW in 5 of the 6 collectives."""
        wins = sum(
            hccl.run(op, _SIZE, 8).bus_bandwidth > nccl.run(op, _SIZE, 8).bus_bandwidth
            for op in CollectiveOp
        )
        assert wins == 5

    def test_gaudi_declines_linearly_with_fewer_devices(self, hccl):
        busbw = [hccl.all_reduce(_SIZE, n).bus_bandwidth for n in (2, 4, 8)]
        assert busbw[0] < busbw[1] < busbw[2]
        # roughly proportional to (n - 1)
        assert busbw[2] / busbw[0] == pytest.approx(7.0, rel=0.15)

    def test_a100_stable_regardless_of_devices(self, nccl):
        busbw = [nccl.all_reduce(_SIZE, n).bus_bandwidth for n in (2, 4, 8)]
        assert max(busbw) / min(busbw) < 1.2

    def test_a100_dominates_at_two_devices(self, hccl, nccl):
        for op in CollectiveOp:
            assert (
                nccl.run(op, _SIZE, 2).bus_bandwidth
                > 3 * hccl.run(op, _SIZE, 2).bus_bandwidth
            )


class TestSizeSweep:
    def test_small_messages_poor_utilization(self, hccl, nccl):
        for library in (hccl, nccl):
            small = library.all_reduce(2048, 8)
            large = library.all_reduce(_SIZE, 8)
            assert small.bus_utilization < 0.1 * large.bus_utilization

    def test_utilization_monotone_in_size(self, hccl):
        utils = [hccl.all_reduce(2 ** p, 8).bus_utilization for p in range(11, 26, 2)]
        assert utils == sorted(utils)


class TestWrappers:
    @pytest.mark.parametrize(
        "method,op",
        [
            ("all_reduce", CollectiveOp.ALL_REDUCE),
            ("all_gather", CollectiveOp.ALL_GATHER),
            ("reduce_scatter", CollectiveOp.REDUCE_SCATTER),
            ("all_to_all", CollectiveOp.ALL_TO_ALL),
            ("reduce", CollectiveOp.REDUCE),
            ("broadcast", CollectiveOp.BROADCAST),
        ],
    )
    def test_wrapper_matches_run(self, hccl, method, op):
        via_wrapper = getattr(hccl, method)(_SIZE, 4)
        via_run = hccl.run(op, _SIZE, 4)
        assert via_wrapper.time == via_run.time
        assert via_wrapper.op is op

    def test_report_fields_consistent(self, nccl):
        report = nccl.all_gather(_SIZE, 8)
        assert report.bus_bandwidth == pytest.approx(
            report.algorithm_bandwidth * 7 / 8
        )
        assert report.bus_utilization == pytest.approx(report.bus_bandwidth / 300e9)
