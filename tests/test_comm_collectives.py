"""Collective algorithms and bus-bandwidth conventions."""

import pytest

from repro.comm.busbw import bus_bandwidth_factor
from repro.comm.collectives import (
    CollectiveOp,
    collective_time,
    mesh_collective_time,
    ring_collective_time,
)
from repro.comm.topology import P2PMeshTopology, SwitchTopology
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC

_MESH = P2PMeshTopology.from_spec(GAUDI2_SPEC, 8)
_SWITCH = SwitchTopology.from_spec(A100_SPEC, 8)
_SIZE = 32 << 20


class TestBusBandwidthFactors:
    def test_allreduce_factor(self):
        assert bus_bandwidth_factor(CollectiveOp.ALL_REDUCE, 8) == pytest.approx(2 * 7 / 8)

    def test_gather_family_factor(self):
        for op in (CollectiveOp.ALL_GATHER, CollectiveOp.REDUCE_SCATTER,
                   CollectiveOp.ALL_TO_ALL):
            assert bus_bandwidth_factor(op, 4) == pytest.approx(3 / 4)

    def test_rooted_ops_factor_one(self):
        assert bus_bandwidth_factor(CollectiveOp.REDUCE, 8) == 1.0
        assert bus_bandwidth_factor(CollectiveOp.BROADCAST, 8) == 1.0

    def test_invalid_participants(self):
        with pytest.raises(ValueError):
            bus_bandwidth_factor(CollectiveOp.ALL_REDUCE, 1)


class TestMeshAlgorithms:
    def test_allreduce_is_two_phases(self):
        ar = mesh_collective_time(CollectiveOp.ALL_REDUCE, _SIZE, 8, _MESH)
        ag = mesh_collective_time(CollectiveOp.ALL_GATHER, _SIZE, 8, _MESH)
        assert ar.time == pytest.approx(2 * ag.time)

    def test_time_decreases_with_more_participants(self):
        """More participants -> more links -> faster on the mesh."""
        t2 = mesh_collective_time(CollectiveOp.ALL_REDUCE, _SIZE, 2, _MESH).time
        t8 = mesh_collective_time(CollectiveOp.ALL_REDUCE, _SIZE, 8, _MESH).time
        assert t8 < t2 / 3

    def test_small_message_latency_bound(self):
        small = mesh_collective_time(CollectiveOp.ALL_REDUCE, 2048, 8, _MESH)
        assert small.time >= 2 * _MESH.base_latency

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            mesh_collective_time(CollectiveOp.ALL_REDUCE, 0, 8, _MESH)


class TestRingAlgorithms:
    def test_allreduce_volume_factor(self):
        result = ring_collective_time(CollectiveOp.ALL_REDUCE, _SIZE, 8, _SWITCH)
        expected_bw_time = 2 * _SIZE * 7 / 8 / 300e9
        assert result.time == pytest.approx(
            expected_bw_time + result.steps * _SWITCH.base_latency
        )

    def test_ring_time_stable_across_participants(self):
        """NVSwitch keeps bandwidth flat regardless of device count."""
        t2 = ring_collective_time(CollectiveOp.ALL_GATHER, _SIZE, 2, _SWITCH).time
        t8 = ring_collective_time(CollectiveOp.ALL_GATHER, _SIZE, 8, _SWITCH).time
        assert t8 == pytest.approx(t2 * (7 / 8) / (1 / 2), rel=0.1)

    def test_steps_counted(self):
        assert ring_collective_time(CollectiveOp.ALL_REDUCE, _SIZE, 8, _SWITCH).steps == 14
        assert ring_collective_time(CollectiveOp.BROADCAST, _SIZE, 8, _SWITCH).steps == 7


class TestDispatch:
    def test_dispatch_by_topology(self):
        mesh_result = collective_time(CollectiveOp.REDUCE, _SIZE, 4, _MESH)
        switch_result = collective_time(CollectiveOp.REDUCE, _SIZE, 4, _SWITCH)
        assert mesh_result.time != switch_result.time

    def test_unknown_topology_rejected(self):
        class Fake:
            pass

        with pytest.raises(TypeError):
            collective_time(CollectiveOp.REDUCE, _SIZE, 4, Fake())

    def test_algorithm_bandwidth(self):
        result = collective_time(CollectiveOp.ALL_GATHER, _SIZE, 8, _SWITCH)
        assert result.algorithm_bandwidth == pytest.approx(_SIZE / result.time)
