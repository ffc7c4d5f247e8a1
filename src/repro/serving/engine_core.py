"""Struct-of-arrays state store of the serving engine.

Walking every request as a live Python object attribute-by-attribute
each virtual step makes object traffic dominate the wall clock long
before the cost model does, so :class:`~repro.serving.engine.LlmServingEngine`
keeps request state in parallel columns (plain lists, see
``_COLUMNS``) keyed by a stable *slot* index instead:

* a slot is acquired when a request is fed and recycled once the
  request reaches a terminal state and has been materialized back onto
  its :class:`~repro.serving.request.Request` object, so column
  length tracks the working set (waiting + running), not the run length;
* the decode batch (the *runner set*) carries its pricing aggregates
  -- total and maximum context, total 128-token KV blocks, minimum
  remaining budget and the context residue histograms -- as running
  state, updated only when a slot joins (after its prefill) or leaves
  (finish, preemption, cancellation, failure).  Every runner grows by
  the same token count per decode step, so each runner stores its
  context and budget relative to one global decode-token offset and a
  burst of many steps (see ``LlamaCostModel.decode_stepper``) costs
  O(steps + finishers), never O(batch);
* the policy state a fleet node needs lives here too: the waiting
  queue is ordered by ``(tier, arrival)``, a conservative
  earliest-expiry bound says when a TTFT deadline scan can find
  anything, admission honours the watermark through
  :meth:`EngineCore.fits`, and checkpoints are derived when an object
  is materialized;
* the thin ``Request`` objects remain the API boundary: they are
  materialized from the columns at every lifecycle event (admission,
  preemption, requeue, finish, shed, failure), so reports, journaling,
  and audit transitions see every transition when it happens.  Terminal
  transitions publish when they happen and waiting objects are always
  current, so the ``advance()`` exit sync copies runner progress only
  -- O(batch), not O(live slots) -- and a caller that never reads
  runner progress (a fleet node) skips it.

The module also owns the process-wide engine-core counters surfaced by
``repro top`` and :class:`ReportAggregates`, the constant-memory
folding sink used when the engine runs with ``retain_requests=False``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import Dict, List, Optional

import numpy as np

from repro.kernels.paged_attention import DEFAULT_BLOCK_SIZE as PRICING_BLOCK
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

#: Every per-slot column with the value a free slot holds.  Plain lists,
#: not numpy arrays: the engine reads and writes one element at a time,
#: and a list element costs a fraction of a boxed numpy scalar.
_COLUMNS = (
    ("input_tokens", 0), ("output_tokens", 0), ("generated", 0),
    ("arrival", 0.0), ("first_token", math.nan), ("finish", math.nan),
    ("restarts", 0), ("retries", 0), ("ckpt_floor", 0),
    ("state", SLOT_FREE), ("base", 0), ("join_seq", 0),
    ("objs", None),
    ("wait_key", None),  # the slot's ``(tier, arrival)`` queue sort key
)

#: Process-wide engine-core counters (the ``repro top`` section).
#: ``scalar_steps`` is always 0; the benchmark harness still reads it.
CORE_COUNTERS: Dict[str, int] = {
    "vectorized_steps": 0,
    "scalar_steps": 0,
    "vectorized_runs": 0,
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
    """A copy of the process-wide engine-core counters."""
    return dict(CORE_COUNTERS)


def reset_counters() -> None:
    """Zero every process-wide engine-core counter (test isolation)."""
    for key in CORE_COUNTERS:
        CORE_COUNTERS[key] = 0


def render_counters() -> str:
    """Fixed-format counter block for ``repro top``."""
    c = CORE_COUNTERS
    return "\n".join([
        f"  steps      : {c['vectorized_steps']}",
        f"  runs       : {c['vectorized_runs']}",
        f"  slots      : {c['slot_high_water']} high-water mark",
        f"  arrivals   : {c['arrival_buffer_peak']} peak buffered",
    ])


#: Heap entries pack ``(key, join sequence)`` into one int that orders by
#: key, then join order (a tuple per entry would triple the heaps' memory).
SEQ_BITS = 40
SEQ_MASK = (1 << SEQ_BITS) - 1


def heap_entry(key: int, seq: int) -> int:
    """One runner-set heap entry (``key`` may be negative)."""
    return (key << SEQ_BITS) | seq


def _expiry_bound(arrival: float, deadline: float) -> float:
    """A time no later than the first ``now`` with
    ``now - arrival > deadline`` (``Request.deadline_missed``), with a
    margin far above the subtraction's rounding error: waking early is
    safe, waking late would miss a scan."""
    return arrival + deadline - 1e-9 * (abs(arrival) + abs(deadline))


class EngineCore:
    """Slot-indexed struct-of-arrays request store for one run.

    Invariants (checked by ``Auditor.check_core_invariants``):

    * a slot id is owned by at most one live request; recycled slots
      re-enter circulation only after their previous occupant reached a
      terminal state and was materialized;
    * shadow KV accounting conserves blocks: free plus the blocks held
      by running slots always equals the pool size;
    * ``wait_q[wait_head:]`` is sorted by ``(tier, arrival)``, the
      admission order;
    * every waiting slot's Request equals its columns (waiting slots
      make no progress, and every write to one updates both), and every
      terminal slot's Request is materialized when it turns terminal,
      so only runners need syncing before an observer looks;
    * the runner-set aggregates equal their recomputation from the slot
      columns.

    Policy state.  ``tiers`` holds every tier fed so far
    (``single_tier`` false makes admission skip unarrived requests);
    ``admit_limit`` is the admission watermark in
    blocks; ``checkpoint_interval`` (0 = off) derives
    ``Request.checkpoint`` at materialization from ``ckpt_floor``, the
    ``generated`` count at the slot's last (re)start; with
    ``deadlines`` on, ``next_expiry`` is a lower bound on the earliest
    time a waiting request can miss its TTFT deadline (deadlines are
    read from the waiting Request objects, which are current).

    Runner-set state.  ``decoded`` counts the tokens every runner has
    gained from decode bursts so far (the global offset ``G``).  A slot
    joining with context ``c`` stores ``b = c - G`` in its ``base``
    column; its remaining budget plus ``G`` is then
    ``r = output + input - b``.  ``runners`` maps each join sequence
    number to its slot, in join order (admission order).
    For ``n`` runners, ``total_context = sum_base + n * G``, the longest
    context is ``max(b) + G`` and the smallest remaining budget
    ``min(r) - G``; ``hist128[k]`` (and ``hist_bs[k]`` for the pool's
    block size) count runners with ``b`` congruent to ``k``.  The two
    extrema come from heaps with lazy deletion, compacted whenever their
    stale entries outnumber the runners.  A runner's ``generated``
    column is implicit (``b + G - input``) and only written back on
    leave or by :meth:`sync_generated`.
    """

    __slots__ = (
        "block_size", "num_blocks", "free_blocks",
        "capacity", "input_tokens", "output_tokens", "generated",
        "arrival", "first_token", "finish", "restarts", "retries",
        "state", "objs", "free_slots", "wait_q", "wait_head",
        "finished_pending", "slot_high_water", "vectorized_steps",
        "base", "join_seq", "runners", "decoded", "sum_base",
        "total_blocks", "hist128", "hist_bs", "base_heap", "rem_heap",
        "join_count", "wait_key", "ckpt_floor", "tiers", "single_tier",
        "admit_limit", "checkpoint_interval", "deadlines", "next_expiry",
    )

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        capacity: int = 64,
        checkpoint_interval: int = 0,
        admission_watermark: float = 1.0,
        deadlines: bool = False,
    ) -> None:
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.free_blocks = num_blocks
        self.admit_limit = admission_watermark * num_blocks
        self.checkpoint_interval = checkpoint_interval
        self.deadlines = deadlines
        self.next_expiry = math.inf
        self.tiers: set = set()
        self.single_tier = True
        self.capacity = max(8, capacity)
        n = self.capacity
        for name, fill in _COLUMNS:
            setattr(self, name, [fill] * n)
        self.free_slots: List[int] = list(range(n - 1, -1, -1))
        self.wait_q: List[int] = []
        self.wait_head = 0
        #: Slots that FINISHED during the last burst, awaiting retirement
        #: at the next virtual scheduler step.
        #: They still hold their KV blocks but have left the runner set;
        #: their Requests are already materialized.
        self.finished_pending: List[int] = []
        self.slot_high_water = 0
        self.vectorized_steps = 0
        #: join sequence -> slot, in join order.
        self.runners: Dict[int, int] = {}
        self.decoded = 0
        self.sum_base = 0
        self.total_blocks = 0
        self.hist128 = [0] * PRICING_BLOCK
        self.hist_bs = (
            self.hist128 if block_size == PRICING_BLOCK else [0] * block_size
        )
        #: Min-heaps of ``-b`` and ``r``, entries packed by :func:`heap_entry`.
        self.base_heap: List[int] = []
        self.rem_heap: List[int] = []
        self.join_count = 0

    # -- slot lifecycle ------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name, fill in _COLUMNS:
            getattr(self, name).extend([fill] * (new - old))
        self.free_slots.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def acquire(self, request: Request) -> int:
        """Bind a fed request to a slot and enqueue it as WAITING."""
        if not self.free_slots:
            self._grow()
        slot = self.free_slots.pop()
        # The engine fed the request through Request.coerce_builtins, so
        # the columns hold builtins and no read back needs unboxing.
        self.input_tokens[slot] = request.input_tokens
        self.output_tokens[slot] = request.output_tokens
        self.generated[slot] = request.generated
        self.arrival[slot] = request.arrival_time
        first = request.first_token_time
        self.first_token[slot] = math.nan if first is None else first
        self.finish[slot] = math.nan
        self.restarts[slot] = request.restarts
        self.retries[slot] = request.retries
        self.wait_key[slot] = (request.tier, request.arrival_time)
        if request.tier not in self.tiers:
            self.tiers.add(request.tier)
            self.single_tier = len(self.tiers) == 1
        self.ckpt_floor[slot] = self.generated[slot]
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

    # -- waiting queue ((tier, arrival)-sorted, the admission order) ---
    def insort_waiting(self, slot: int, left: bool = False) -> None:
        """Insert into the active waiting region by ``(tier, arrival)``.

        ``left=False`` lands after equal keys (submission FIFO);
        ``left=True`` lands before them (preempted victims re-admit
        ahead of later arrivals).
        """
        keys = self.wait_key
        key = keys[slot]
        q = self.wait_q
        lo, hi = self.wait_head, len(q)
        while lo < hi:
            mid = (lo + hi) // 2
            probe = keys[q[mid]]
            if probe < key or (not left and probe == key):
                lo = mid + 1
            else:
                hi = mid
        q.insert(lo, slot)
        request = self.objs[slot]
        if (
            self.deadlines
            and request.deadline is not None
            and request.first_token_time is None
        ):
            expiry = _expiry_bound(request.arrival_time, request.deadline)
            if expiry < self.next_expiry:
                self.next_expiry = expiry

    def refresh_expiry(self) -> None:
        """Recompute ``next_expiry`` over the waiting requests (after a
        deadline scan; admissions leave it conservatively low)."""
        if not self.deadlines:
            return
        earliest = math.inf
        for slot in self.waiting_slots():
            request = self.objs[slot]
            if request.deadline is not None and request.first_token_time is None:
                expiry = _expiry_bound(request.arrival_time, request.deadline)
                if expiry < earliest:
                    earliest = expiry
        self.next_expiry = earliest

    @property
    def waiting_count(self) -> int:
        return len(self.wait_q) - self.wait_head

    def pop_waiting_head(self) -> int:
        slot = self.wait_q[self.wait_head]
        self.wait_head += 1
        if self.wait_head > 512 and self.wait_head * 2 > len(self.wait_q):
            del self.wait_q[:self.wait_head]
            self.wait_head = 0
        return slot

    def waiting_slots(self) -> List[int]:
        return self.wait_q[self.wait_head:]

    def take_waiting(self, index: int) -> int:
        """Remove and return the waiting slot at queue ``index``."""
        if index == self.wait_head:
            return self.pop_waiting_head()
        return self.wait_q.pop(index)

    def first_arrived(self, now: float) -> int:
        """Queue index of the highest-priority waiting request that has
        arrived by ``now`` (-1 when none has) -- the kv-exhaustion probe."""
        q = self.wait_q
        arrival = self.arrival
        for index in range(self.wait_head, len(q)):
            if arrival[q[index]] <= now:
                return index
            if self.single_tier:
                break  # arrival-sorted: nothing behind has arrived
        return -1

    def next_arrival(self) -> float:
        """Earliest arrival among waiting requests (the idle jump)."""
        if self.single_tier:
            return self.arrival[self.wait_q[self.wait_head]]
        return min(self.arrival[slot] for slot in self.waiting_slots())

    # -- shadow KV accounting ------------------------------------------
    def blocks_needed(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    def fits(self, needed: int, free: int) -> bool:
        """Whether ``needed`` blocks can be admitted with ``free`` blocks
        free: they are free, and admitting them keeps occupancy under the
        watermark (an empty pool always admits a fitting request, so a
        watermark can delay but never deadlock admission).  The engine's
        admission step evaluates the same rule inline."""
        return needed <= free and (
            self.num_blocks - free + needed <= self.admit_limit
            or free == self.num_blocks
        )

    def blocks_held(self, slot: int) -> int:
        """Blocks a post-prefill slot holds.

        The block manager's token count for a running request trails its
        ``context_len`` by one (admission allocates the prompt; the
        prefill's first token bumps ``generated`` without an append), so
        a slot with ``generated`` tokens holds
        ``ceil((input + generated - 1) / block_size)`` blocks.
        """
        return self.blocks_needed(self.input_tokens[slot] + self.generated[slot] - 1)

    # -- runner set ----------------------------------------------------
    # join, leave and end_burst run once per runner per admission or
    # finish, so they pack heap entries (heap_entry) and test staleness
    # (_live_key) inline.
    def join(self, slot: int) -> None:
        """Add a post-prefill RUNNING slot to the runner set."""
        inp = self.input_tokens[slot]
        context = inp + self.generated[slot]
        base = context - self.decoded
        seq = self.join_count
        self.join_count = seq + 1
        self.runners[seq] = slot
        self.join_seq[slot] = seq
        self.base[slot] = base
        self.sum_base += base
        self.total_blocks += -(-context // PRICING_BLOCK)
        self.hist128[base % PRICING_BLOCK] += 1
        if self.hist_bs is not self.hist128:
            self.hist_bs[base % self.block_size] += 1
        heapq.heappush(self.base_heap, (-base << SEQ_BITS) | seq)
        # r = output + input - b: the remaining budget plus ``decoded``.
        rem = self.output_tokens[slot] + inp - base
        heapq.heappush(self.rem_heap, (rem << SEQ_BITS) | seq)

    def leave(self, slot: int) -> None:
        """Remove a runner from the runner set, writing back its
        ``generated`` column; its heap entries go stale."""
        runners = self.runners
        del runners[self.join_seq[slot]]
        base = self.base[slot]
        context = base + self.decoded
        self.generated[slot] = context - self.input_tokens[slot]
        self.sum_base -= base
        self.total_blocks -= -(-context // PRICING_BLOCK)
        self.hist128[base % PRICING_BLOCK] -= 1
        if self.hist_bs is not self.hist128:
            self.hist_bs[base % self.block_size] -= 1
        bound = 2 * len(runners)  # _compact's trigger, tested inline
        if len(self.base_heap) > bound or len(self.rem_heap) > bound:
            self._compact()

    def _compact(self) -> None:
        """Rebuild a heap once its stale entries outnumber the runners."""
        live = len(self.runners)
        if len(self.base_heap) > 2 * live:
            self.base_heap = [
                heap_entry(-self.base[slot], seq)
                for seq, slot in self.runners.items()
            ]
            heapq.heapify(self.base_heap)
        if len(self.rem_heap) > 2 * live:
            out, inp, base = self.output_tokens, self.input_tokens, self.base
            self.rem_heap = [
                heap_entry(out[slot] + inp[slot] - base[slot], seq)
                for seq, slot in self.runners.items()
            ]
            heapq.heapify(self.rem_heap)

    def _live_key(self, heap: List[int]) -> Optional[int]:
        """The smallest live key of a lazily-deleted heap (popping the
        stale entries above it), or None when no runner is left."""
        runners = self.runners
        while heap:
            if heap[0] & SEQ_MASK in runners:
                return heap[0] >> SEQ_BITS
            heapq.heappop(heap)
        return None

    def max_context(self) -> int:
        """Longest runner context (requires a non-empty runner set)."""
        return self.decoded - self._live_key(self.base_heap)

    def min_remaining(self) -> int:
        """Smallest runner remaining budget (non-empty runner set)."""
        return self._live_key(self.rem_heap) - self.decoded

    def end_burst(self, recorded: int, total_blocks: int) -> List[int]:
        """Account a decode burst that recorded ``recorded`` tokens per
        runner and left ``total_blocks`` pricing blocks; returns the
        runners whose budget is now spent, removed from the runner set
        in join order (``finished_pending`` order)."""
        decoded = self.decoded = self.decoded + recorded
        self.total_blocks = total_blocks
        heap = self.rem_heap
        runners = self.runners
        done: List[int] = []
        while heap:
            top = heap[0]
            seq = top & SEQ_MASK
            if seq not in runners:
                heapq.heappop(heap)  # stale: the runner already left
            elif top >> SEQ_BITS == decoded:
                heapq.heappop(heap)
                done.append(runners[seq])
            else:
                break
        for slot in done:
            self.leave(slot)
        return done

    def sync_generated(self) -> None:
        """Write every runner's implicit ``generated`` count back to the
        column (for observers that read the slot columns directly)."""
        gen = self.generated
        base = self.base
        inp = self.input_tokens
        decoded = self.decoded
        for slot in self.runners.values():
            gen[slot] = base[slot] + decoded - inp[slot]

    def running_slots(self) -> List[int]:
        """Every slot holding KV blocks: runners in join order, then
        finishers awaiting retirement."""
        return list(self.runners.values()) + self.finished_pending

    # -- materialization ------------------------------------------------
    def _sync_checkpoint(self, slot: int, request: Request) -> None:
        """A request checkpoints at every multiple of the interval it
        reaches; the last one reached since the slot's (re)start is the
        checkpoint, else it keeps its old one."""
        interval = self.checkpoint_interval
        generated = request.generated
        reached = generated - generated % interval
        if reached > self.ckpt_floor[slot]:
            request.checkpoint = reached

    def sync_object(self, slot: int) -> Request:
        """Copy a live slot's progress onto its Request (no transition)."""
        request = self.objs[slot]
        request.generated = self.generated[slot]
        first = self.first_token[slot]
        request.first_token_time = None if math.isnan(first) else first
        request.restarts = self.restarts[slot]
        if self.checkpoint_interval:
            self._sync_checkpoint(slot, request)
        return request

    def sync_live_objects(self) -> None:
        """Copy every runner's progress onto its Request, for observers
        that read live objects between advances.  Waiting and terminal
        slots are skipped: their objects are current by construction
        (see the class invariants)."""
        decoded = self.decoded
        base = self.base
        inp = self.input_tokens
        gen = self.generated
        objs = self.objs
        checkpoints = self.checkpoint_interval
        # A runner's restarts are current (admission does not change
        # them) and its first token, once set, never moves.
        for slot in self.runners.values():
            request = objs[slot]
            generated = base[slot] + decoded - inp[slot]
            gen[slot] = generated
            request.generated = generated
            if request.first_token_time is None:
                request.first_token_time = self.first_token[slot]
            if checkpoints:
                self._sync_checkpoint(slot, request)

    def finish_slot(self, slot: int, now: float) -> None:
        """Mark a RUNNING slot FINISHED at ``now`` and publish it: its
        Request takes the slot's tokens and fires the terminal transition
        (auditor and outbox included) at the step it finishes.  The
        slot keeps its KV blocks in ``finished_pending``
        until retirement at the next virtual scheduler step."""
        self.state[slot] = SLOT_FINISHED
        self.finish[slot] = now
        self.finished_pending.append(slot)
        request = self.objs[slot]
        request.record_tokens_bulk(
            self.generated[slot] - request.generated,
            self.first_token[slot], now,
        )
        if self.checkpoint_interval:
            self._sync_checkpoint(slot, request)

    # -- aggregate views ------------------------------------------------
    @property
    def has_unfinished(self) -> bool:
        return (
            bool(self.runners)
            or bool(self.finished_pending)
            or self.wait_head < len(self.wait_q)
        )

    def live_generated_total(self) -> int:
        """Generated-token total over live (non-terminal) slots."""
        self.sync_generated()
        gen = self.generated
        return sum(gen[slot] for slot in self.running_slots() + self.waiting_slots())


#: Log-spaced TTFT histogram bin edges for the constant-memory p99
#: estimate: 12 bins per decade from 0.1 us to 100 ks.
#: Plain floats: ``bisect`` on a list beats ``np.searchsorted`` on one
#: scalar, and gives the same (left) insertion index.
_TTFT_EDGES = np.logspace(-7.0, 5.0, 145).tolist()


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
        self.ttft_hist = [0] * (len(_TTFT_EDGES) + 1)

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
            self.ttft_hist[bisect.bisect_left(_TTFT_EDGES, ttft)] += 1
        elif state is RequestState.SHED:
            self.shed += 1
        elif state is RequestState.FAILED:
            self.failed += 1

    def p99_ttft(self) -> float:
        """Upper-bound p99 TTFT from the log histogram (the nearest-rank
        percentile of the bin upper edges)."""
        total = sum(self.ttft_hist)
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(0.99 * total))
        cumulative = list(itertools.accumulate(self.ttft_hist))
        bin_index = bisect.bisect_left(cumulative, rank)
        if bin_index >= len(_TTFT_EDGES):
            bin_index = len(_TTFT_EDGES) - 1
        return _TTFT_EDGES[bin_index]
