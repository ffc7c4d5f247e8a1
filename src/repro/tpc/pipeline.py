"""In-order VLIW scoreboard pipeline for the TPC.

The TPC issues instructions in program order, one per issue slot per
cycle (load / store / vector / scalar), with a 4-cycle architectural
result latency.  Because issue is in order and registers are a finite
resource, a loop that reuses the same registers every iteration
serializes on write-after-read hazards -- which is precisely why the
paper's best practice #2 (manual loop unrolling with register renaming)
matters.  The simulator enforces:

* RAW: an instruction issues only when its sources are ready;
* WAR: a write to ``r`` issues only after earlier readers of ``r`` have
  issued;
* WAW: writes to the same register issue in order;
* slot structural hazards: one instruction per slot per cycle;
* in-order issue: instruction *i* never issues before *i - 1*;
* a bounded number of outstanding random (gather) loads, modelling the
  TPC's memory-level-parallelism window;
* a taken-branch penalty at each loop boundary.

Loops are simulated in one pass that records the cycle count after
every iteration.  After each iteration the scoreboard is snapshotted
relative to the last issue cycle, with every value that can no longer
bind clamped away; the first repeated snapshot proves the rest of the
loop is a shifted copy of the iterations since the earlier one, so the
exact count at any later iteration follows in integer arithmetic.
``simulate`` reads its warm-up prefix and measurement window from that
single pass and extrapolates the steady-state cycles-per-iteration as
before, so 24-million-element STREAM loops cost microseconds to
evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.memo import CostCache
from repro.hw.spec import VectorEngineSpec
from repro.tpc.isa import Instruction, MemoryKind, Opcode, Slot

#: Shared scoreboard-simulation memo: kernel bodies are frozen
#: hashable instruction tuples, and launchers are rebuilt per kernel
#: call, so the cache lives at module scope.  Keyed on the two spec
#: fields the scoreboard actually reads, not the (unhashable) spec.
_SIMULATE_CACHE = CostCache("tpc.pipeline", maxsize=2048)

#: Extra cycles a taken loop-closing branch costs before the next
#: iteration's first instruction can issue.
BRANCH_PENALTY = 1

#: Iterations simulated before measuring the steady state.
_WARMUP_ITERS = 16
#: Iterations over which the steady-state rate is measured.
_MEASURE_ITERS = 32


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of simulating a kernel body on one TPC."""

    iterations: int
    total_cycles: float
    cycles_per_iteration: float
    #: Useful bytes touched per iteration (loads + stores).
    bytes_per_iteration: float
    flops_per_iteration: float
    instructions_per_iteration: int

    def time_seconds(self, clock_hz: float) -> float:
        return self.total_cycles / clock_hz

    @property
    def total_flops(self) -> float:
        return self.flops_per_iteration * self.iterations

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_iteration * self.iterations


class VliwPipeline:
    """Cycle simulator for one TPC executing a loop body."""

    def __init__(self, spec: VectorEngineSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    def exact_cycles(
        self, body: Sequence[Instruction], marks: Sequence[int]
    ) -> List[int]:
        """Exact cycle count after each of ``marks`` repeats of ``body``.

        Simulates until the largest mark or the first repeated
        scoreboard snapshot, whichever comes first (module docstring).
        """
        # Intern registers and slots so the loop runs on int-indexed
        # lists instead of string- and enum-keyed dicts.
        registers: Dict[str, int] = {}
        slots: Dict[Slot, int] = {}
        random_latency = self.spec.random_load_latency
        decoded = []
        for instr in body:
            is_random_load = instr.memory_kind is MemoryKind.RANDOM_LOAD
            decoded.append((
                tuple(registers.setdefault(s, len(registers)) for s in instr.sources),
                -1 if instr.dest is None else registers.setdefault(instr.dest, len(registers)),
                slots.setdefault(instr.slot, len(slots)),
                is_random_load,
                random_latency if is_random_load else instr.latency,
                instr.opcode is Opcode.LOOP_END,
            ))
        ready = [0] * len(registers)
        last_read = [0] * len(registers)
        last_write_issue = [-1] * len(registers)
        slot_free = [0] * len(slots)
        inflight_random: List[int] = []  # completion cycles of gather loads
        max_outstanding = self.spec.max_outstanding_loads
        cycle = 0
        prev_issue = 0
        horizon = max(marks)
        history = [0]  # history[k]: cycles after k iterations
        seen: Dict[tuple, int] = {}
        while len(history) <= horizon:
            # Every later issue is >= prev_issue, so values at or below
            # it can no longer bind: clamping them makes two states
            # that behave alike compare equal.
            prev = prev_issue
            snapshot = (
                cycle - prev,
                tuple([v - prev if v > prev else 0 for v in ready]),
                tuple([v - prev if v > prev else 0 for v in last_read]),
                tuple([w - prev if w >= prev else -1 for w in last_write_issue]),
                tuple([v - prev if v > prev else 0 for v in slot_free]),
                tuple(sorted([c - prev for c in inflight_random if c > prev])),
            )
            start = seen.setdefault(snapshot, len(history) - 1)
            if start != len(history) - 1:
                break
            for sources, dest, slot, is_random_load, latency, is_loop_end in decoded:
                earliest = prev_issue
                for src in sources:
                    if ready[src] > earliest:
                        earliest = ready[src]
                if dest >= 0:
                    if last_read[dest] > earliest:
                        earliest = last_read[dest]
                    if last_write_issue[dest] >= earliest:
                        earliest = last_write_issue[dest] + 1
                if slot_free[slot] > earliest:
                    earliest = slot_free[slot]
                if is_random_load:
                    inflight_random = [c for c in inflight_random if c > earliest]
                    while len(inflight_random) >= max_outstanding:
                        earliest = min(inflight_random)
                        inflight_random = [c for c in inflight_random if c > earliest]
                    inflight_random.append(earliest + latency)
                issue = earliest
                if dest >= 0:
                    ready[dest] = issue + latency
                    last_write_issue[dest] = issue
                for src in sources:
                    if issue > last_read[src]:
                        last_read[src] = issue
                slot_free[slot] = issue + 1
                if is_loop_end:
                    issue += BRANCH_PENALTY
                prev_issue = issue
                if issue + 1 > cycle:
                    cycle = issue + 1
            history.append(cycle)
        last = len(history) - 1
        counts = []
        for mark in marks:
            if mark <= last:
                counts.append(history[mark])
            else:
                # The state after ``last`` iterations is the one after
                # ``start`` shifted by ``delta`` cycles.
                trips, offset = divmod(mark - start, last - start)
                delta = history[last] - history[start]
                counts.append(history[start + offset] + trips * delta)
        return counts

    # ------------------------------------------------------------------
    def simulate(self, body: Sequence[Instruction], iterations: int) -> PipelineResult:
        """Simulate a loop of ``iterations`` copies of ``body``.

        ``body`` is one loop iteration *after* unrolling, i.e. the
        instruction sequence between two backward branches.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if not body:
            raise ValueError("body must contain at least one instruction")
        key = (
            self.spec.max_outstanding_loads,
            self.spec.random_load_latency,
            tuple(body),
            iterations,
        )
        cached = _SIMULATE_CACHE.get(key)
        if cached is not None:
            return cached
        # The warm-up must outlast the outstanding-gather window, or a
        # gather loop would be extrapolated from its pre-saturation rate.
        gathers_per_trip = sum(
            1 for i in body if i.memory_kind is MemoryKind.RANDOM_LOAD
        )
        warmup = _WARMUP_ITERS
        if gathers_per_trip:
            window_trips = -(-self.spec.max_outstanding_loads // gathers_per_trip)
            warmup = max(warmup, window_trips + 8)
        sample = warmup + _MEASURE_ITERS
        if iterations <= sample:
            total = float(self.exact_cycles(body, (iterations,))[0])
        else:
            warm, warm_plus = self.exact_cycles(body, (warmup, sample))
            steady = (warm_plus - warm) / _MEASURE_ITERS
            total = warm_plus + steady * (iterations - sample)

        useful = 0.0
        flops = 0.0
        for instr in body:
            flops += instr.flops
            if instr.access_bytes > 0 and instr.memory_kind is not MemoryKind.NONE:
                useful += instr.access_bytes
        result = PipelineResult(
            iterations=iterations,
            total_cycles=total,
            cycles_per_iteration=total / iterations,
            bytes_per_iteration=useful,
            flops_per_iteration=flops,
            instructions_per_iteration=len(body),
        )
        _SIMULATE_CACHE.put(key, result)
        return result
