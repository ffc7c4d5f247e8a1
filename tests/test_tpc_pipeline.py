"""VLIW scoreboard pipeline (the heart of Figure 8)."""

import pytest

from repro.hw.spec import GAUDI2_SPEC
from repro.tpc.isa import Instruction, Opcode
from repro.tpc.kernel import TpcKernel
from repro.tpc.pipeline import VliwPipeline


@pytest.fixture(scope="module")
def pipe():
    return VliwPipeline(GAUDI2_SPEC.vector)


def _ld(dest):
    return Instruction(Opcode.LD_TNSR, dest=dest, access_bytes=256)


def _add(dest, *sources):
    return Instruction(Opcode.ADD, dest=dest, sources=sources)


def _st(source):
    return Instruction(Opcode.ST_TNSR, sources=(source,), access_bytes=256)


class TestHazards:
    def test_raw_dependency_stalls_four_cycles(self, pipe):
        body = [_ld("x"), _add("r", "x")]
        result = pipe.simulate(body, 1)
        # load issues at 0, add waits until x is ready at cycle 4.
        assert result.total_cycles == 5

    def test_independent_ops_dual_issue(self, pipe):
        # load and an unrelated vector op can share a cycle (VLIW).
        body = [_ld("x"), _add("r", "z")]
        result = pipe.simulate(body, 1)
        assert result.total_cycles <= 2

    def test_same_slot_structural_hazard(self, pipe):
        body = [_ld("x"), _ld("y")]
        result = pipe.simulate(body, 1)
        assert result.total_cycles == 2  # one load per cycle

    def test_hoisted_loads_beat_serial_copies(self, pipe):
        """The unrolling mechanism: hoisting the second copy's loads
        above the first copy's dependent arithmetic shortens the
        in-order critical path."""
        serial = [
            _ld("x0"), _add("r0", "x0"), _st("r0"),
            _ld("x1"), _add("r1", "x1"), _st("r1"),
            Instruction(Opcode.LOOP_END, latency=1),
        ]
        hoisted = [
            _ld("x0"), _ld("x1"),
            _add("r0", "x0"), _add("r1", "x1"),
            _st("r0"), _st("r1"),
            Instruction(Opcode.LOOP_END, latency=1),
        ]
        assert (
            pipe.simulate(hoisted, 200).total_cycles
            < pipe.simulate(serial, 200).total_cycles
        )

    def test_waw_hazard_orders_writes(self, pipe):
        body = [_add("r", "a"), _add("r", "b")]
        result = pipe.simulate(body, 1)
        assert result.total_cycles >= 2


class TestLoopBehaviour:
    def test_register_reuse_serializes_iterations(self, pipe):
        """The mechanism behind the paper's unrolling best practice."""
        body = [_ld("x"), _ld("y"), _add("r", "x", "y"), _st("r"),
                Instruction(Opcode.LOOP_END, latency=1)]
        result = pipe.simulate(body, 100)
        assert result.cycles_per_iteration > 6

    def test_steady_state_extrapolation_consistent(self, pipe):
        body = [_ld("x"), _add("r", "x"), _st("r"), Instruction(Opcode.LOOP_END, latency=1)]
        short = pipe.simulate(body, 40)
        long = pipe.simulate(body, 40000)
        assert long.cycles_per_iteration == pytest.approx(
            short.cycles_per_iteration, rel=0.15
        )

    def test_cycles_scale_linearly_with_iterations(self, pipe):
        body = [_ld("x"), _add("r", "x"), _st("r"), Instruction(Opcode.LOOP_END, latency=1)]
        one = pipe.simulate(body, 10000).total_cycles
        two = pipe.simulate(body, 20000).total_cycles
        assert two == pytest.approx(2 * one, rel=0.01)


class TestRandomLoads:
    def test_gather_latency_applied(self, pipe):
        gather = [Instruction(Opcode.LD_G, dest="x", access_bytes=256), _add("r", "x")]
        result = pipe.simulate(gather, 1)
        assert result.total_cycles >= GAUDI2_SPEC.vector.random_load_latency

    def test_outstanding_window_limits_gather_rate(self, pipe):
        body = [Instruction(Opcode.LD_G, access_bytes=256)] * 4 + [
            Instruction(Opcode.LOOP_END, latency=1)
        ]
        result = pipe.simulate(body, 1000)
        # steady-state rate = latency / max_outstanding cycles per gather
        spec = GAUDI2_SPEC.vector
        expected = spec.random_load_latency / spec.max_outstanding_loads
        per_gather = result.cycles_per_iteration / 4
        assert per_gather == pytest.approx(expected, rel=0.2)


class TestAccounting:
    def test_bytes_per_iteration(self, pipe):
        body = [_ld("x"), _ld("y"), _add("r", "x", "y"), _st("r"),
                Instruction(Opcode.LOOP_END, latency=1)]
        result = pipe.simulate(body, 10)
        assert result.bytes_per_iteration == 768

    def test_sub_granule_moved_bytes_round_up(self, pipe):
        body = [Instruction(Opcode.LD_TNSR, dest="x", access_bytes=64)]
        assert pipe.simulate(body, 1).bytes_per_iteration == 64
        # The launcher prices traffic at its device's access granule.
        kernel = TpcKernel("ld64", body, trips=1)
        assert kernel.moved_bytes_per_trip(GAUDI2_SPEC.memory.min_access_bytes) == 256

    def test_flops_per_iteration(self, pipe):
        body = [_add("r", "a", "b"), Instruction(Opcode.MAC, dest="r", sources=("a", "b"))]
        result = pipe.simulate(body, 1)
        assert result.flops_per_iteration == 128 + 256

    def test_time_seconds(self, pipe):
        body = [_add("r", "a")]
        result = pipe.simulate(body, 100)
        assert result.time_seconds(1e9) == pytest.approx(result.total_cycles / 1e9)


class TestValidation:
    def test_empty_body_raises(self, pipe):
        with pytest.raises(ValueError):
            pipe.simulate([], 1)

    def test_zero_iterations_raises(self, pipe):
        with pytest.raises(ValueError):
            pipe.simulate([_add("r", "a")], 0)
