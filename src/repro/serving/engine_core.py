"""Struct-of-arrays state store for the vectorized serving fast path.

The scalar engine keeps every request as a live Python object and walks
the batch attribute-by-attribute each virtual step.  At million-request
scale that object traffic dominates the wall clock, so the fast path
(:meth:`~repro.serving.engine.LlmServingEngine` with
``engine_mode="vectorized"``) keeps request state in parallel numpy
arrays keyed by a stable *slot* index instead:

* a slot is acquired when a request is fed and recycled once the
  request reaches a terminal state and has been materialized back onto
  its :class:`~repro.serving.request.Request` object, so live array
  size tracks the working set (waiting + running), not the run length;
* one decode burst prices many virtual steps against integer context
  aggregates (see ``LlamaCostModel.decode_stepper``) without touching
  any per-request object;
* the thin ``Request`` objects remain the API boundary: they are
  materialized from the arrays at every lifecycle event (admission,
  preemption, retirement) and at ``advance()`` exit, so reports,
  journaling, and audit transitions keep their exact scalar semantics.

The module also owns the process-wide fast-path counters surfaced by
``repro top`` and :class:`ReportAggregates`, the constant-memory
folding sink used when the engine runs with ``retain_requests=False``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.serving.request import Request, RequestState

__all__ = [
    "CORE_COUNTERS",
    "EngineCore",
    "ReportAggregates",
    "bump_counter",
    "counters_snapshot",
    "render_counters",
    "reset_counters",
]

# -- slot states (int8 codes mirroring RequestState) ----------------------
SLOT_FREE = -1
SLOT_WAITING = 0
SLOT_RUNNING = 1
SLOT_FINISHED = 2
SLOT_SHED = 3
SLOT_FAILED = 4

_STATE_OF_CODE = {
    SLOT_WAITING: RequestState.WAITING,
    SLOT_RUNNING: RequestState.RUNNING,
    SLOT_FINISHED: RequestState.FINISHED,
    SLOT_SHED: RequestState.SHED,
    SLOT_FAILED: RequestState.FAILED,
}

#: Process-wide fast-path health counters (the ``repro top`` section).
CORE_COUNTERS: Dict[str, int] = {
    "vectorized_steps": 0,
    "scalar_steps": 0,
    "vectorized_runs": 0,
    "scalar_runs": 0,
    "slot_high_water": 0,
    "arrival_buffer_peak": 0,
}


def bump_counter(name: str, amount: int = 1) -> None:
    """Increment one process-wide counter (``slot_high_water`` and
    ``arrival_buffer_peak`` are maxima, not sums)."""
    if name in ("slot_high_water", "arrival_buffer_peak"):
        if amount > CORE_COUNTERS[name]:
            CORE_COUNTERS[name] = amount
    else:
        CORE_COUNTERS[name] += amount


def counters_snapshot() -> Dict[str, int]:
    """A copy of the process-wide fast-path counters."""
    return dict(CORE_COUNTERS)


def reset_counters() -> None:
    """Zero every process-wide fast-path counter (test isolation)."""
    for key in CORE_COUNTERS:
        CORE_COUNTERS[key] = 0


def render_counters() -> str:
    """Fixed-format counter block for ``repro top``."""
    c = CORE_COUNTERS
    return "\n".join([
        f"  steps      : {c['vectorized_steps']} vectorized | "
        f"{c['scalar_steps']} scalar",
        f"  runs       : {c['vectorized_runs']} vectorized | "
        f"{c['scalar_runs']} scalar",
        f"  slots      : {c['slot_high_water']} high-water mark",
        f"  arrivals   : {c['arrival_buffer_peak']} peak buffered",
    ])


class EngineCore:
    """Slot-indexed struct-of-arrays request store for one run.

    Invariants (checked by ``Auditor.check_core_invariants``):

    * a slot id is owned by at most one live request; recycled slots
      re-enter circulation only after their previous occupant reached a
      terminal state and was materialized;
    * shadow KV accounting conserves blocks: free plus the blocks held
      by running slots always equals the pool size;
    * ``wait_q[wait_head:]`` is sorted by arrival time.
    """

    __slots__ = (
        "block_size", "num_blocks", "free_blocks",
        "capacity", "input_tokens", "output_tokens", "generated",
        "arrival", "first_token", "finish", "restarts", "retries",
        "state", "objs", "free_slots", "wait_q", "wait_head",
        "run_slots", "finished_pending", "slot_high_water", "vectorized_steps",
    )

    def __init__(self, num_blocks: int, block_size: int, capacity: int = 64) -> None:
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.free_blocks = num_blocks
        self.capacity = max(8, capacity)
        n = self.capacity
        self.input_tokens = np.zeros(n, dtype=np.int64)
        self.output_tokens = np.zeros(n, dtype=np.int64)
        self.generated = np.zeros(n, dtype=np.int64)
        self.arrival = np.zeros(n, dtype=np.float64)
        self.first_token = np.full(n, np.nan)
        self.finish = np.full(n, np.nan)
        self.restarts = np.zeros(n, dtype=np.int64)
        self.retries = np.zeros(n, dtype=np.int64)
        self.state = np.full(n, SLOT_FREE, dtype=np.int8)
        self.objs: List[Optional[Request]] = [None] * n
        self.free_slots: List[int] = list(range(n - 1, -1, -1))
        self.wait_q: List[int] = []
        self.wait_head = 0
        self.run_slots: List[int] = []
        #: Slots that FINISHED during the last burst, awaiting retirement
        #: at the next virtual scheduler step (mirrors the scalar order).
        self.finished_pending: List[int] = []
        self.slot_high_water = 0
        self.vectorized_steps = 0

    # -- slot lifecycle ------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("input_tokens", "output_tokens", "generated",
                     "restarts", "retries"):
            arr = np.zeros(new, dtype=np.int64)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        arr = np.zeros(new)
        arr[:old] = self.arrival
        self.arrival = arr
        for name in ("first_token", "finish"):
            arr = np.full(new, np.nan)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        state = np.full(new, SLOT_FREE, dtype=np.int8)
        state[:old] = self.state
        self.state = state
        self.objs.extend([None] * (new - old))
        self.free_slots.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def acquire(self, request: Request) -> int:
        """Bind a fed request to a slot and enqueue it as WAITING."""
        if not self.free_slots:
            self._grow()
        slot = self.free_slots.pop()
        self.input_tokens[slot] = request.input_tokens
        self.output_tokens[slot] = request.output_tokens
        self.generated[slot] = request.generated
        self.arrival[slot] = request.arrival_time
        self.first_token[slot] = (
            np.nan if request.first_token_time is None else request.first_token_time
        )
        self.finish[slot] = np.nan
        self.restarts[slot] = request.restarts
        self.retries[slot] = request.retries
        self.state[slot] = SLOT_WAITING
        self.objs[slot] = request
        live = self.capacity - len(self.free_slots)
        if live > self.slot_high_water:
            self.slot_high_water = live
            bump_counter("slot_high_water", live)
        self.insort_waiting(slot)
        return slot

    def release(self, slot: int) -> None:
        """Recycle a terminal, materialized slot."""
        self.state[slot] = SLOT_FREE
        self.objs[slot] = None
        self.free_slots.append(slot)

    # -- waiting queue (arrival-sorted, matching the scheduler) --------
    def insort_waiting(self, slot: int, left: bool = False) -> None:
        """Insert into the active waiting region by arrival time.

        ``left=False`` lands after equal arrivals (submission FIFO);
        ``left=True`` lands before them (preempted victims re-admit
        ahead of later arrivals) -- the scalar scheduler's exact rule.
        """
        at = float(self.arrival[slot])
        q = self.wait_q
        lo, hi = self.wait_head, len(q)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = float(self.arrival[q[mid]])
            if probe < at or (not left and probe == at):
                lo = mid + 1
            else:
                hi = mid
        q.insert(lo, slot)

    @property
    def waiting_count(self) -> int:
        return len(self.wait_q) - self.wait_head

    def waiting_head(self) -> Optional[int]:
        if self.wait_head < len(self.wait_q):
            return self.wait_q[self.wait_head]
        return None

    def pop_waiting_head(self) -> int:
        slot = self.wait_q[self.wait_head]
        self.wait_head += 1
        if self.wait_head > 512 and self.wait_head * 2 > len(self.wait_q):
            del self.wait_q[:self.wait_head]
            self.wait_head = 0
        return slot

    def waiting_slots(self) -> List[int]:
        return self.wait_q[self.wait_head:]

    # -- shadow KV accounting ------------------------------------------
    def blocks_needed(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    def blocks_held(self, slot: int) -> int:
        """Blocks a post-prefill slot holds.

        The block manager's token count for a running request trails its
        ``context_len`` by one (admission allocates the prompt; the
        prefill's first token bumps ``generated`` without an append), so
        a slot with ``generated`` tokens holds
        ``ceil((input + generated - 1) / block_size)`` blocks.
        """
        return self.blocks_needed(
            int(self.input_tokens[slot]) + int(self.generated[slot]) - 1
        )

    def allocate_shadow(self, slot: int) -> int:
        """Charge the admission allocation for ``slot``'s context."""
        needed = self.blocks_needed(
            int(self.input_tokens[slot]) + int(self.generated[slot])
        )
        self.free_blocks -= needed
        return needed

    # -- materialization ------------------------------------------------
    def sync_object(self, slot: int) -> Request:
        """Copy a live slot's progress onto its Request (no transition)."""
        request = self.objs[slot]
        request.generated = int(self.generated[slot])
        first = self.first_token[slot]
        request.first_token_time = None if math.isnan(first) else float(first)
        request.restarts = int(self.restarts[slot])
        return request

    def sync_live_objects(self) -> None:
        """Materialize every live (waiting/running) slot -- called at
        ``advance()`` exit so external observers never see stale state."""
        for slot in self.run_slots:
            if self.state[slot] == SLOT_RUNNING:
                self.sync_object(slot)
        for slot in self.waiting_slots():
            self.sync_object(slot)

    def materialize_terminal(self, slot: int) -> Request:
        """Apply a slot's terminal state to its Request object, firing
        the (legal) lifecycle transition for the auditor."""
        request = self.objs[slot]
        request.restarts = int(self.restarts[slot])
        code = int(self.state[slot])
        if code == SLOT_FINISHED:
            delta = int(self.generated[slot]) - request.generated
            request.record_tokens_bulk(
                delta, float(self.first_token[slot]), float(self.finish[slot])
            )
        else:
            self.sync_object(slot)
            if code != SLOT_RUNNING and code != SLOT_WAITING:
                request._transition(_STATE_OF_CODE[code])
        return request

    # -- aggregate views ------------------------------------------------
    @property
    def has_unfinished(self) -> bool:
        return bool(self.run_slots) or self.wait_head < len(self.wait_q)

    def live_generated_total(self) -> int:
        """Generated-token total over live (non-terminal) slots."""
        total = 0
        for slot in self.run_slots:
            total += int(self.generated[slot])
        for slot in self.waiting_slots():
            total += int(self.generated[slot])
        return total


#: Log-spaced TTFT histogram bin edges for the constant-memory p99
#: estimate: 12 bins per decade from 0.1 us to 100 ks.
_TTFT_EDGES = np.logspace(-7.0, 5.0, 145)


class ReportAggregates:
    """Constant-memory folding sink for ``retain_requests=False`` runs.

    Every terminal request is folded in *retirement order* -- so the
    latency sums can differ from the retained path's feed-order sums in
    the last ulp -- and the p99 TTFT is a histogram upper bound rather
    than an exact order statistic.  Byte-golden comparisons therefore
    always use retained runs; this sink is for scale, not goldens.
    """

    __slots__ = (
        "fed", "finished", "shed", "failed", "retried",
        "sum_ttft", "sum_tpot", "terminal_tokens", "ttft_hist",
    )

    def __init__(self) -> None:
        self.fed = 0
        self.finished = 0
        self.shed = 0
        self.failed = 0
        self.retried = 0
        self.sum_ttft = 0.0
        self.sum_tpot = 0.0
        self.terminal_tokens = 0
        self.ttft_hist = np.zeros(len(_TTFT_EDGES) + 1, dtype=np.int64)

    def fold_terminal(self, request: Request) -> None:
        """Fold one terminal request and let its object be collected."""
        state = request.state
        self.terminal_tokens += request.generated
        if request.retries > 0:
            self.retried += 1
        if state is RequestState.FINISHED:
            self.finished += 1
            ttft = request.ttft
            self.sum_ttft += ttft
            self.sum_tpot += request.tpot
            self.ttft_hist[int(np.searchsorted(_TTFT_EDGES, ttft))] += 1
        elif state is RequestState.SHED:
            self.shed += 1
        elif state is RequestState.FAILED:
            self.failed += 1

    def p99_ttft(self) -> float:
        """Upper-bound p99 TTFT from the log histogram (the nearest-rank
        percentile of the bin upper edges)."""
        total = int(self.ttft_hist.sum())
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(0.99 * total))
        cumulative = np.cumsum(self.ttft_hist)
        bin_index = int(np.searchsorted(cumulative, rank))
        if bin_index >= len(_TTFT_EDGES):
            bin_index = len(_TTFT_EDGES) - 1
        return float(_TTFT_EDGES[bin_index])
