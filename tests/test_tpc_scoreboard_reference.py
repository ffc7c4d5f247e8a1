"""Differential test of the TPC scoreboard against a frozen reference.

``_reference_cycles`` is a verbatim copy of the per-iteration scoreboard
loop that ``VliwPipeline`` ran before period detection: it simulates
every iteration up to the requested one.  ``VliwPipeline.exact_cycles``
must return the same integer cycle count at every mark, both below the
first repeated scoreboard snapshot (plain simulation) and above it
(extrapolated from the detected period).
"""

from dataclasses import replace
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.spec import GAUDI2_SPEC
from repro.tpc.isa import Instruction, MemoryKind, Opcode, Slot
from repro.tpc.pipeline import BRANCH_PENALTY, VliwPipeline

#: A gather window small enough to saturate within a few iterations.
_NARROW_WINDOW = replace(GAUDI2_SPEC.vector, max_outstanding_loads=4, random_load_latency=37)
_SPECS = (GAUDI2_SPEC.vector, _NARROW_WINDOW)


def _reference_cycles(spec, body, iterations):
    """Simulate ``iterations`` repeats of ``body``; returns cycles."""
    ready: Dict[str, int] = {}
    last_read: Dict[str, int] = {}
    last_write_issue: Dict[str, int] = {}
    slot_free: Dict[Slot, int] = {slot: 0 for slot in Slot}
    inflight_random: List[int] = []  # completion cycles of gather loads
    cycle = 0
    prev_issue = 0
    max_outstanding = spec.max_outstanding_loads
    random_latency = spec.random_load_latency
    # Hazard metadata is static per instruction; resolving the
    # slot/memory-kind enum properties once instead of every
    # iteration keeps the scoreboard loop on plain locals.
    decoded = [
        (
            instr.sources,
            instr.dest,
            instr.slot,
            instr.memory_kind is MemoryKind.RANDOM_LOAD,
            instr.latency,
            instr.opcode is Opcode.LOOP_END,
        )
        for instr in body
    ]
    for _ in range(iterations):
        for sources, dest, slot, is_random_load, latency, is_loop_end in decoded:
            earliest = prev_issue
            for src in sources:
                earliest = max(earliest, ready.get(src, 0))
            if dest is not None:
                earliest = max(earliest, last_read.get(dest, 0))
                earliest = max(earliest, last_write_issue.get(dest, -1) + 1)
            earliest = max(earliest, slot_free[slot])
            if is_random_load:
                inflight_random = [c for c in inflight_random if c > earliest]
                while len(inflight_random) >= max_outstanding:
                    earliest = min(inflight_random)
                    inflight_random = [c for c in inflight_random if c > earliest]
            issue = earliest
            if is_random_load:
                latency = random_latency
                inflight_random.append(issue + latency)
            if dest is not None:
                ready[dest] = issue + latency
                last_write_issue[dest] = issue
            for src in sources:
                last_read[src] = max(last_read.get(src, 0), issue)
            slot_free[slot] = issue + 1
            if is_loop_end:
                issue += BRANCH_PENALTY
            prev_issue = issue
            cycle = max(cycle, issue + 1)
    return float(cycle)


_REGISTERS = [f"v{i}" for i in range(6)]


@st.composite
def instruction(draw):
    opcode = draw(st.sampled_from([
        Opcode.LD_TNSR, Opcode.LD_G, Opcode.ST_TNSR, Opcode.ST_G,
        Opcode.ADD, Opcode.MAC, Opcode.EXP, Opcode.S_ADD, Opcode.LOOP_END,
    ]))
    if opcode is Opcode.LOOP_END:
        return Instruction(opcode=opcode, latency=1)
    if opcode in (Opcode.ST_TNSR, Opcode.ST_G):
        return Instruction(
            opcode=opcode, sources=(draw(st.sampled_from(_REGISTERS)),), access_bytes=256
        )
    dest = draw(st.sampled_from(_REGISTERS))
    if opcode in (Opcode.LD_TNSR, Opcode.LD_G):
        return Instruction(opcode=opcode, dest=dest, access_bytes=256)
    sources = tuple(draw(st.lists(st.sampled_from(_REGISTERS), min_size=1, max_size=2)))
    return Instruction(
        opcode=opcode, dest=dest, sources=sources, latency=draw(st.integers(1, 8))
    )


bodies = st.lists(instruction(), min_size=1, max_size=10)


class TestAgainstReference:
    @given(body=bodies, marks=st.lists(st.integers(1, 400), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_identical_cycles_at_every_mark(self, body, marks):
        # Mark 1 ends before any snapshot can repeat (plain simulation);
        # 400 is past the period of all but the slowest-settling bodies.
        marks = [1, *marks, 400]
        for spec in _SPECS:
            expected = [_reference_cycles(spec, body, m) for m in marks]
            pipe = VliwPipeline(spec)
            assert pipe.exact_cycles(body, marks) == expected
            assert [pipe.exact_cycles(body, [m])[0] for m in marks] == expected

    def test_gather_window_saturation(self):
        # Eight gathers per trip against a four-deep window: the loop is
        # bound by gather latency, far above one issue per cycle.
        body = [Instruction(Opcode.LD_G, dest=f"g{i}", access_bytes=256) for i in range(8)]
        body.append(Instruction(Opcode.LOOP_END, latency=1))
        marks = [1, 2, 5, 17, 100, 399]
        expected = [_reference_cycles(_NARROW_WINDOW, body, m) for m in marks]
        assert VliwPipeline(_NARROW_WINDOW).exact_cycles(body, marks) == expected
        assert expected[-1] > 4 * 399 * len(body)

    def test_period_reaches_marks_beyond_simulation(self):
        """A mark no per-iteration loop could reach in a test's time is
        answered from the detected period, on the reference's line."""
        body = [
            Instruction(Opcode.LD_TNSR, dest="x", access_bytes=256),
            Instruction(Opcode.ADD, dest="r", sources=("x",)),
            Instruction(Opcode.ST_TNSR, sources=("r",), access_bytes=256),
            Instruction(Opcode.LOOP_END, latency=1),
        ]
        spec = GAUDI2_SPEC.vector
        base = _reference_cycles(spec, body, 400)
        per_trip = _reference_cycles(spec, body, 401) - base
        assert per_trip == _reference_cycles(spec, body, 402) - _reference_cycles(spec, body, 401)
        mark = 10**12
        (cycles,) = VliwPipeline(spec).exact_cycles(body, [mark])
        assert cycles == base + (mark - 400) * per_trip
