"""Property-based fuzzing of the VLIW pipeline simulator.

Random instruction sequences must never violate the machine's basic
invariants: issue bounded below by slot pressure, monotone in work,
deterministic, and consistent under extrapolation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import memo
from repro.hw.spec import DType
from repro.tpc.isa import Instruction, Opcode, Slot
from repro.tpc.pipeline import VliwPipeline

_PIPE = VliwPipeline()

_OPCODES = [
    Opcode.LD_TNSR, Opcode.LD_G, Opcode.ST_TNSR,
    Opcode.ADD, Opcode.MUL, Opcode.MAC, Opcode.MOV,
    Opcode.S_ADD, Opcode.LOOP_END,
]


@st.composite
def instruction(draw):
    opcode = draw(st.sampled_from(_OPCODES))
    registers = [f"v{i}" for i in range(8)]
    dest = None
    sources = ()
    access = 0
    if opcode in (Opcode.LD_TNSR, Opcode.LD_G):
        dest = draw(st.sampled_from(registers + [None]))
        access = draw(st.sampled_from([32, 64, 128, 256]))
    elif opcode is Opcode.ST_TNSR:
        sources = (draw(st.sampled_from(registers)),)
        access = 256
    elif opcode is Opcode.S_ADD:
        dest = draw(st.sampled_from(registers))
    elif opcode is Opcode.LOOP_END:
        return Instruction(opcode=opcode, latency=1)
    else:
        dest = draw(st.sampled_from(registers))
        n_sources = draw(st.integers(1, 2))
        sources = tuple(draw(st.sampled_from(registers)) for _ in range(n_sources))
    return Instruction(
        opcode=opcode, dest=dest, sources=sources, dtype=DType.BF16,
        access_bytes=access,
    )


bodies = st.lists(instruction(), min_size=1, max_size=12)


class TestPipelineInvariants:
    @given(body=bodies, iterations=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_cycles_bounded_below_by_slot_pressure(self, body, iterations):
        result = _PIPE.simulate(body, iterations)
        for slot in Slot:
            slot_instructions = sum(1 for i in body if i.slot is slot)
            assert result.total_cycles >= slot_instructions * iterations

    @given(body=bodies, iterations=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_cycles_monotone_in_iterations(self, body, iterations):
        shorter = _PIPE.simulate(body, iterations).total_cycles
        longer = _PIPE.simulate(body, iterations + 5).total_cycles
        assert longer >= shorter

    @given(body=bodies, iterations=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, body, iterations):
        with memo.disabled():
            first = _PIPE.simulate(body, iterations)
            second = _PIPE.simulate(body, iterations)
        assert first.total_cycles == second.total_cycles

    @given(body=bodies)
    @settings(max_examples=40, deadline=None)
    def test_extrapolation_close_to_exact(self, body):
        """The steady-state shortcut must track the exact simulation."""
        (exact,) = _PIPE.exact_cycles(body, [120])
        estimated = _PIPE.simulate(body, 120).total_cycles
        assert abs(estimated - exact) / exact < 0.2

    @given(body=bodies, iterations=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_accounting_non_negative(self, body, iterations):
        result = _PIPE.simulate(body, iterations)
        assert result.bytes_per_iteration >= 0
        assert result.moved_bytes_per_iteration >= result.bytes_per_iteration
        assert result.flops_per_iteration >= 0
