"""Fault plans, the injector, and degraded-fabric collectives."""

import re

import pytest

from repro.audit import ConfigError
from repro.comm import (
    CollectiveOp,
    DegradedMeshTopology,
    DegradedSwitchTopology,
    FabricHealth,
    P2PMeshTopology,
    SwitchTopology,
    degraded_collective_time,
    effective_participants,
)
from repro.cluster.node import Node, NodeClass
from repro.core import memo
from repro.faults import ChaosConfig, FaultEvent, FaultInjector, FaultKind, FaultPlan, run_chaos
from repro.hw.backend import A100, GAUDI2, get_backend, list_backends
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.models.tensor_parallel import TensorParallelConfig

_MESH = P2PMeshTopology.from_spec(GAUDI2_SPEC, 8)
_SWITCH = SwitchTopology.from_spec(A100_SPEC, 8)


def _hccl():
    return get_backend(GAUDI2).collective_library()


class TestFaultPlan:
    def test_builder_chains_and_orders(self):
        plan = (
            FaultPlan(seed=1)
            .fail_device(3, at=2.0, recover_at=5.0)
            .throttle_hbm(0.5, at=1.0, until=4.0)
        )
        times = [e.time for e in plan.scheduled()]
        assert times == sorted(times)
        assert [e.kind for e in plan.scheduled()] == [
            FaultKind.HBM_THROTTLE,
            FaultKind.DEVICE_FAIL,
            FaultKind.HBM_RESTORE,
            FaultKind.DEVICE_RECOVER,
        ]

    def test_flap_alternates_down_up(self):
        plan = FaultPlan().flap_link(0, 1, at=1.0, period=0.5, cycles=2)
        kinds = [e.kind for e in plan.scheduled()]
        assert kinds == [
            FaultKind.LINK_DEGRADE, FaultKind.LINK_RESTORE,
            FaultKind.LINK_DEGRADE, FaultKind.LINK_RESTORE,
        ]
        assert plan.scheduled()[0].factor == 0.0

    def test_recover_before_fail_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().fail_device(0, at=2.0, recover_at=1.0)

    def test_kernel_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(kernel_fault_rate=1.0)

    @pytest.mark.parametrize("time, kind, target, factor, message", [
        (float("nan"), FaultKind.KERNEL_FAULT, (), 1.0, "event time must be finite"),
        (float("inf"), FaultKind.HBM_RESTORE, (), 1.0, "event time must be finite"),
        (1.0, FaultKind.DEVICE_FAIL, (), 1.0, "device must be >= 0"),
        (1.0, FaultKind.LINK_RESTORE, (2, 2), 1.0, "two distinct devices"),
        (1.0, FaultKind.LINK_DEGRADE, (0, 1), 1e-45, "link factor must be 0 or in"),
        (1.0, FaultKind.HBM_THROTTLE, (), 0.0, "HBM throttle factor must be in (0, 1]"),
        (1.0, FaultKind.TPC_STRAGGLER, (3,), 1.5, "straggler factor must be in (0, 1]"),
        (1.0, FaultKind.DEVICE_RECOVER, (3,), 0.5, "device-recover event takes no factor"),
    ])
    def test_event_checked_per_kind(self, time, kind, target, factor, message):
        """Every plan, however built, is held to the same event bounds."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            FaultEvent(time, kind, *target, factor=factor)

    def test_from_specs_round_trip(self):
        plan = FaultPlan.from_specs(
            seed=7,
            fail_device=["3@t=2.0,recover=5.0"],
            degrade_link=["0-1@t=1.0,factor=0.5,until=3.0"],
            throttle_hbm=["0.7@t=1.5"],
            straggler=["2@t=0.5,factor=0.8"],
            kernel_fault_rate=0.1,
        )
        assert plan.seed == 7
        assert plan.kernel_fault_rate == 0.1
        assert len(plan.events) == 6
        fail = plan.scheduled()[3]
        assert fail.kind is FaultKind.DEVICE_FAIL and fail.device == 3

    @pytest.mark.parametrize("spec", [
        "3",                    # no @
        "3@2.0",                # not key=value
        "3@t=abc",              # not a number
        "3@t=1.0,bogus=2",      # unknown key
        "3@recover=5.0",        # missing required t
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError, match="--fail-device: "):
            FaultPlan.from_specs(fail_device=[spec])

    def test_bad_link_spec_rejected(self):
        with pytest.raises(ConfigError, match="--degrade-link: bad link"):
            FaultPlan.from_specs(degrade_link=["01@t=1.0,factor=0.5"])


class TestFaultInjector:
    def test_advance_applies_in_time_order(self):
        plan = FaultPlan().fail_device(3, at=2.0, recover_at=5.0)
        injector = FaultInjector(plan, num_devices=8)
        assert injector.advance(1.0).device_failures == 0
        assert injector.alive_devices() == 8
        summary = injector.advance(2.5)
        assert summary.device_failures == 1
        assert injector.alive_devices() == 7
        assert not injector.device_up(3)
        assert injector.advance(5.0).device_recoveries == 1
        assert injector.alive_devices() == 8
        assert injector.exhausted

    def test_double_fail_counts_once(self):
        plan = FaultPlan().fail_device(3, at=1.0).fail_device(3, at=2.0)
        injector = FaultInjector(plan, num_devices=8)
        summary = injector.advance(3.0)
        assert summary.device_failures == 1
        assert injector.alive_devices() == 7

    def test_compute_slowdown_combines_worst(self):
        plan = (
            FaultPlan()
            .throttle_hbm(0.5, at=1.0)
            .straggler(2, 0.25, at=1.0)
        )
        injector = FaultInjector(plan, num_devices=8)
        assert injector.compute_slowdown() == 1.0
        injector.advance(1.0)
        assert injector.compute_slowdown() == pytest.approx(4.0)

    def test_dead_device_cannot_straggle(self):
        plan = FaultPlan().straggler(2, 0.25, at=0.0).fail_device(2, at=1.0)
        injector = FaultInjector(plan, num_devices=8)
        injector.advance(0.5)
        assert injector.compute_slowdown() == pytest.approx(4.0)
        injector.advance(1.0)
        assert injector.compute_slowdown() == 1.0

    def test_kernel_faults_seeded_deterministic(self):
        def draws(seed):
            injector = FaultInjector(
                FaultPlan(seed=seed, kernel_fault_rate=0.3), num_devices=8
            )
            return [injector.kernel_fault() for _ in range(50)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)
        assert any(draws(3)) and not all(draws(3))

    def test_scheduled_kernel_fault_fires_once(self):
        injector = FaultInjector(FaultPlan().kernel_fault_at(1.0), num_devices=8)
        injector.advance(1.0)
        assert injector.kernel_fault()
        assert not injector.kernel_fault()


class TestFabricHealth:
    def test_link_factor_symmetric(self):
        health = FabricHealth()
        health.set_link_factor(1, 0, 0.5)
        assert health.link_factor(0, 1) == 0.5
        health.restore_link(0, 1)
        assert health.link_factor(1, 0) == 1.0

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            FabricHealth().set_link_factor(2, 2, 0.5)

    def test_down_device_links_ignored(self):
        health = FabricHealth()
        health.set_link_factor(0, 1, 0.25)
        health.fail_device(1)
        assert health.worst_link_factor(8) == 1.0
        assert health.alive(8) == 7


class TestFabricStateKey:
    """The fault-state snapshot degraded views memoize under."""

    HEALTHY = ((), ())

    def test_each_mutator_changes_key_and_restore_is_healthy(self):
        health = FabricHealth()
        assert health.state_key() == self.HEALTHY
        for mutate in (
            lambda: health.fail_device(3),
            lambda: health.set_link_factor(1, 0, 0.5),
            lambda: health.set_link_factor(0, 1, 0.25),
            lambda: health.fail_device(5),
            lambda: health.recover_device(3),
            lambda: health.restore_link(0, 1),
            lambda: health.recover_device(5),
        ):
            before = health.state_key()
            mutate()
            assert health.state_key() != before
        assert health.state_key() == self.HEALTHY

    def test_key_is_a_sorted_value_snapshot(self):
        health = FabricHealth()
        for device in (5, 1):
            health.fail_device(device)
        health.set_link_factor(6, 2, 0.5)
        health.set_link_factor(1, 0, 0.25)
        assert health.state_key() == ((1, 5), (((0, 1), 0.25), ((2, 6), 0.5)))
        assert FabricHealth(
            down_devices={1, 5}, link_factors={(2, 6): 0.5, (0, 1): 0.25}
        ).state_key() == health.state_key()

    def test_topology_cache_keys(self):
        health = FabricHealth()
        assert _MESH.cache_key() == ()
        assert _SWITCH.cache_key() == ()
        mesh = DegradedMeshTopology(_MESH, health)
        switch = DegradedSwitchTopology(_SWITCH, health)
        health.fail_device(2)
        assert mesh.cache_key() == switch.cache_key() == health.state_key()

    @pytest.mark.parametrize("backend", [GAUDI2, A100], ids=["HcclLibrary", "NcclLibrary"])
    def test_degraded_library_prices_follow_fault_state(self, backend):
        probes = [
            (op, size, participants)
            for op in CollectiveOp
            for size in (1 << 20, 64 << 20)
            for participants in (4, 8)
        ]

        def prices(library):
            return [library.run(*probe) for probe in probes]

        health = FabricHealth()
        library = get_backend(backend).collective_library().degraded(health)
        healthy = prices(library)
        health.fail_device(3)
        health.set_link_factor(0, 1, 0.5)
        degraded = prices(library)
        assert degraded != healthy
        assert prices(get_backend(backend).collective_library().degraded(health)) == degraded
        health.recover_device(3)
        health.restore_link(0, 1)
        assert prices(library) == healthy


class TestDegradedTopologies:
    def test_mesh_port_cliff_from_device_loss(self):
        """The acceptance shape: (alive-1)*3 of 21 ports stay usable."""
        health = FabricHealth()
        mesh = DegradedMeshTopology(_MESH, health)
        healthy = mesh.injection_bandwidth(8)
        health.fail_device(3)
        assert mesh.alive_devices() == 7
        degraded = mesh.injection_bandwidth(7)
        assert degraded / healthy == pytest.approx(6 / 7)

    def test_mesh_degraded_link_gates_pairs(self):
        health = FabricHealth()
        mesh = DegradedMeshTopology(_MESH, health)
        healthy = mesh.pair_bandwidth(8)
        health.set_link_factor(0, 1, 0.5)
        assert mesh.pair_bandwidth(8) == pytest.approx(0.5 * healthy)

    def test_mesh_severed_link_relays_at_half_rate(self):
        health = FabricHealth()
        mesh = DegradedMeshTopology(_MESH, health)
        health.set_link_factor(0, 1, 0.0)
        assert mesh.pair_bandwidth(8) == pytest.approx(
            0.5 * _MESH.pair_bandwidth(8)
        )

    def test_switch_flat_under_device_loss(self):
        health = FabricHealth()
        switch = DegradedSwitchTopology(_SWITCH, health)
        health.fail_device(3)
        assert switch.alive_devices() == 7
        assert switch.injection_bandwidth(7) == _SWITCH.injection_bandwidth(7)

    def test_effective_participants(self):
        health = FabricHealth()
        mesh = DegradedMeshTopology(_MESH, health)
        assert effective_participants(mesh, 8) == 8
        assert effective_participants(_MESH, 8) == 8
        health.fail_device(0)
        health.fail_device(1)
        assert effective_participants(mesh, 8) == 6


class TestDegradedCollectives:
    def test_collective_slows_as_mesh_shrinks(self):
        health = FabricHealth()
        mesh = DegradedMeshTopology(_MESH, health)
        size = 64 * 2**20
        healthy = degraded_collective_time(CollectiveOp.ALL_REDUCE, size, 8, mesh)
        health.fail_device(3)
        degraded = degraded_collective_time(CollectiveOp.ALL_REDUCE, size, 8, mesh)
        assert degraded.participants == 7
        assert degraded.algorithm_bandwidth < healthy.algorithm_bandwidth

    def test_lone_survivor_collective_is_free(self):
        health = FabricHealth()
        for device in range(7):
            health.fail_device(device)
        mesh = DegradedMeshTopology(_MESH, health)
        result = degraded_collective_time(CollectiveOp.ALL_REDUCE, 1024, 8, mesh)
        assert result.time == 0.0 and result.steps == 0

    def test_library_rebinding_keeps_tuning(self):
        health = FabricHealth()
        library = _hccl()
        degraded = library.degraded(health)
        assert degraded.protocol_efficiency == library.protocol_efficiency
        assert degraded.name == library.name
        health.fail_device(2)
        assert degraded.alive_participants(8) == 7
        assert library.alive_participants(8) == 8  # original untouched

    def test_nccl_library_degrades_too(self):
        degraded = get_backend(A100).collective_library().degraded(FabricHealth())
        assert isinstance(degraded.topology, DegradedSwitchTopology)


class TestFaultAwareTensorParallel:
    def test_allreduce_follows_port_cliff(self):
        health = FabricHealth()
        library = _hccl().degraded(health)
        tp = TensorParallelConfig(degree=8, library=library)
        size = 8 * 4096 * 2
        healthy_time = tp.allreduce_time(size)
        health.fail_device(3)
        assert tp.effective_degree() == 7
        degraded_time = tp.allreduce_time(size)
        assert degraded_time != healthy_time
        assert degraded_time == library.all_reduce(size, 7).time

    def test_lone_survivor_skips_collective(self):
        health = FabricHealth()
        for device in range(7):
            health.fail_device(device)
        tp = TensorParallelConfig(degree=8, library=_hccl().degraded(health))
        assert tp.allreduce_time(1 << 20) == 0.0


class TestHealthyViewDifferential:
    """Chaos and fleet nodes price TP through ``.degraded(health)`` on
    the device's own library; ``serve`` prices through the plain one.
    With no fault in the health record the two must agree to the bit."""

    @pytest.mark.parametrize("tp", [2, 4, 8])
    @pytest.mark.parametrize("backend", list_backends())
    def test_node_view_prices_like_serve(self, backend, tp):
        serve_tp = TensorParallelConfig.for_device(get_backend(backend), tp)
        node_tp = Node("n", NodeClass(name=backend, device=backend, tp=tp)).engine.model.tp
        assert isinstance(node_tp.library.topology, (DegradedMeshTopology, DegradedSwitchTopology))
        with memo.disabled():
            for size in (2 << 10, 1 << 20, 8 << 20, 64 << 20):
                assert node_tp.allreduce_time(size) == serve_tp.allreduce_time(size)

    @pytest.mark.parametrize("tp", [2, 4, 8])
    @pytest.mark.parametrize("backend", list_backends())
    def test_chaos_view_prices_like_serve(self, backend, tp):
        with memo.disabled():
            report = run_chaos(config=ChaosConfig(device=backend, tp=tp, num_requests=2))
            serve_lib = TensorParallelConfig.for_device(get_backend(backend), tp).library
            probe = serve_lib.all_reduce(64 * 2**20, tp).bus_bandwidth
        assert report.degraded_allreduce_bw == report.healthy_allreduce_bw == probe
