"""Paged KV-cache block manager.

The memory-management half of PagedAttention (Section 4.2): the KV
cache is divided into fixed-size blocks allocated on demand, so memory
waste is bounded by one partial block per request instead of a whole
max-length preallocation.  The manager tracks free blocks, per-request
block lists, and utilization/fragmentation statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


class KvCacheError(RuntimeError):
    """Raised when the block pool is exhausted or misused."""


@dataclass(frozen=True)
class KvCacheStats:
    """Occupancy snapshot of the block pool."""

    total_blocks: int
    allocated_blocks: int
    used_tokens: int
    block_size: int

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.allocated_blocks

    @property
    def occupancy(self) -> float:
        return self.allocated_blocks / self.total_blocks if self.total_blocks else 0.0

    @property
    def internal_fragmentation(self) -> float:
        """Fraction of allocated token slots holding no token."""
        capacity = self.allocated_blocks * self.block_size
        return 1.0 - self.used_tokens / capacity if capacity else 0.0


class BlockManager:
    """Allocates KV-cache blocks to requests.

    Misuse (freeing an unknown or already-freed request id,
    re-allocating an existing id) always raises :class:`KvCacheError` --
    never a silent pass or a bare ``KeyError`` -- because a tolerated
    double-free would silently skew every downstream occupancy metric.
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks <= 0 or block_size <= 0:
            raise ValueError("num_blocks and block_size must be positive")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        self._tables: Dict[int, List[int]] = {}
        self._tokens: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def blocks_needed(self, num_tokens: int) -> int:
        return math.ceil(num_tokens / self.block_size)

    def can_allocate(self, num_tokens: int) -> bool:
        return self.blocks_needed(num_tokens) <= len(self._free)

    def allocate(self, request_id: int, num_tokens: int) -> List[int]:
        """Allocate blocks for a request's prompt."""
        if request_id in self._tables:
            raise KvCacheError(f"request {request_id} already has an allocation")
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        needed = self.blocks_needed(num_tokens)
        if needed > len(self._free):
            raise KvCacheError(
                f"out of KV blocks: need {needed}, have {len(self._free)}"
            )
        blocks = [self._free.pop() for _ in range(needed)]
        self._tables[request_id] = blocks
        self._tokens[request_id] = num_tokens
        return list(blocks)

    def append_token(self, request_id: int) -> bool:
        """Extend a request by one token; returns True if a new block
        was allocated."""
        if request_id not in self._tables:
            raise KvCacheError(f"request {request_id} has no allocation")
        self._tokens[request_id] += 1
        needed = self.blocks_needed(self._tokens[request_id])
        if needed > len(self._tables[request_id]):
            if not self._free:
                raise KvCacheError("out of KV blocks during decode")
            self._tables[request_id].append(self._free.pop())
            return True
        return False

    def free(self, request_id: int) -> None:
        """Release a request's blocks.

        Raises :class:`KvCacheError` for an unknown or already-freed
        request id: a silent double-free would corrupt the pool's
        conservation accounting.
        """
        blocks = self._tables.pop(request_id, None)
        if blocks is None:
            raise KvCacheError(
                f"request {request_id} has no allocation to free "
                "(unknown id or double free)"
            )
        self._tokens.pop(request_id, None)
        self._free.extend(reversed(blocks))

    def free_all(self) -> int:
        """Release every allocation; returns how many requests still
        held blocks.  Always leaves ``allocated_blocks == 0``."""
        holders = list(self._tables)
        for request_id in holders:
            self.free(request_id)
        return len(holders)

    def block_list(self, request_id: int) -> List[int]:
        try:
            return list(self._tables[request_id])
        except KeyError:
            raise KvCacheError(f"request {request_id} has no allocation") from None

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def allocated_blocks(self) -> int:
        return self.num_blocks - len(self._free)

    def stats(self) -> KvCacheStats:
        allocated = self.num_blocks - len(self._free)
        return KvCacheStats(
            total_blocks=self.num_blocks,
            allocated_blocks=allocated,
            used_tokens=sum(self._tokens.values()),
            block_size=self.block_size,
        )
