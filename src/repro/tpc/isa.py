"""TPC instruction set model.

Only the aspects that matter for performance are modelled: which VLIW
issue slot an instruction occupies, its architectural result latency,
and whether it touches global memory (and how -- streaming accesses are
prefetched, random accesses pay the full HBM round trip).

Opcode names follow the TPC-C intrinsics used in the paper's Figure 2(c)
(``v_f32_ld_tnsr``, ``v_f32_add_b``, ...) with the dtype prefix folded
into the instruction's ``dtype`` field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.hw.spec import DType

#: Architectural latency of TPC instructions in cycles (Section 2.2:
#: "TPC instructions have an average architectural latency of 4
#: processor cycles").
ARCH_LATENCY = 4


class Slot(enum.Enum):
    """VLIW issue slots; one instruction per slot per cycle."""

    LOAD = "load"
    STORE = "store"
    VECTOR = "vector"
    SCALAR = "scalar"


class MemoryKind(enum.Enum):
    """How an instruction touches memory."""

    NONE = "none"
    STREAM_LOAD = "stream_load"
    RANDOM_LOAD = "random_load"
    STREAM_STORE = "stream_store"
    RANDOM_STORE = "random_store"


class Opcode(enum.Enum):
    """Performance-relevant TPC opcodes."""

    LD_TNSR = "ld_tnsr"          # v_<t>_ld_tnsr: vector load from a tensor
    LD_G = "ld_g"                # gather load from a computed global address
    ST_TNSR = "st_tnsr"          # v_<t>_st_tnsr: vector store to a tensor
    ST_G = "st_g"                # scatter store to a computed global address
    ADD = "add"                  # v_<t>_add_b
    SUB = "sub"
    MUL = "mul"                  # v_<t>_mul_b
    MAC = "mac"                  # v_<t>_mac_b: fused multiply-accumulate
    MAX = "max"
    MIN = "min"
    EXP = "exp"
    RECIP = "recip"
    MOV = "mov"
    CMP = "cmp"
    S_ADD = "s_add"              # scalar ALU
    S_MUL = "s_mul"
    S_CMP = "s_cmp"
    LOOP_END = "loop_end"        # loop bookkeeping / taken branch


_OPCODE_SLOT = {
    Opcode.LD_TNSR: Slot.LOAD,
    Opcode.LD_G: Slot.LOAD,
    Opcode.ST_TNSR: Slot.STORE,
    Opcode.ST_G: Slot.STORE,
    Opcode.ADD: Slot.VECTOR,
    Opcode.SUB: Slot.VECTOR,
    Opcode.MUL: Slot.VECTOR,
    Opcode.MAC: Slot.VECTOR,
    Opcode.MAX: Slot.VECTOR,
    Opcode.MIN: Slot.VECTOR,
    Opcode.EXP: Slot.VECTOR,
    Opcode.RECIP: Slot.VECTOR,
    Opcode.MOV: Slot.VECTOR,
    Opcode.CMP: Slot.VECTOR,
    Opcode.S_ADD: Slot.SCALAR,
    Opcode.S_MUL: Slot.SCALAR,
    Opcode.S_CMP: Slot.SCALAR,
    Opcode.LOOP_END: Slot.SCALAR,
}

_OPCODE_MEMORY = {
    Opcode.LD_TNSR: MemoryKind.STREAM_LOAD,
    Opcode.LD_G: MemoryKind.RANDOM_LOAD,
    Opcode.ST_TNSR: MemoryKind.STREAM_STORE,
    Opcode.ST_G: MemoryKind.RANDOM_STORE,
}

#: FLOPs retired per vector lane for each compute opcode.
_OPCODE_FLOPS_PER_LANE = {
    Opcode.ADD: 1.0,
    Opcode.SUB: 1.0,
    Opcode.MUL: 1.0,
    Opcode.MAC: 2.0,
    Opcode.MAX: 1.0,
    Opcode.MIN: 1.0,
    # Transcendental helpers run on the special-function path; the
    # conventional single-flop accounting is used.
    Opcode.EXP: 1.0,
    Opcode.RECIP: 1.0,
    Opcode.MOV: 0.0,
    Opcode.CMP: 0.0,
}


@dataclass(frozen=True)
class Instruction:
    """One TPC instruction instance inside a kernel body.

    Registers are virtual names; the pipeline enforces RAW, WAR, and WAW
    hazards through them, which is how the benefit of unroll-time
    register renaming appears.
    """

    opcode: Opcode
    dest: Optional[str] = None
    sources: Tuple[str, ...] = field(default_factory=tuple)
    dtype: DType = DType.BF16
    #: Bytes of *useful* data moved for memory instructions.
    access_bytes: int = 0
    latency: int = ARCH_LATENCY
    #: Name of the global tensor a memory instruction touches (set by
    #: the builder; the test suite's functional interpreter reads it to
    #: execute the stream).
    tensor: Optional[str] = None

    @property
    def slot(self) -> Slot:
        return _OPCODE_SLOT[self.opcode]

    @property
    def memory_kind(self) -> MemoryKind:
        return _OPCODE_MEMORY.get(self.opcode, MemoryKind.NONE)

    @property
    def is_load(self) -> bool:
        return self.memory_kind in (MemoryKind.STREAM_LOAD, MemoryKind.RANDOM_LOAD)

    @property
    def is_store(self) -> bool:
        return self.memory_kind in (MemoryKind.STREAM_STORE, MemoryKind.RANDOM_STORE)

    @property
    def flops(self) -> float:
        """FLOPs retired by this instruction (full vector width)."""
        per_lane = _OPCODE_FLOPS_PER_LANE.get(self.opcode, 0.0)
        if per_lane == 0.0:
            return 0.0
        lanes = 2048 // (8 * self.dtype.itemsize)
        return per_lane * lanes

    def __str__(self) -> str:
        srcs = ", ".join(self.sources)
        dest = f"{self.dest} <- " if self.dest else ""
        return f"{self.opcode.value}[{self.slot.value}] {dest}{srcs}"
