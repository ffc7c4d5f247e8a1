"""Functional interpreter for TPC kernel bodies (a test oracle).

The pipeline simulator (:mod:`repro.tpc.pipeline`) times an instruction
stream; this interpreter *executes* the same stream on numpy data, so a
kernel built with the DSL is verified end to end: the exact instruction
list that was scheduled and timed also computes the answer.  Only the
test suite runs it; no simulated number depends on it.

Semantics:

* ``LD_TNSR`` streams its named tensor: each load pops the next
  access-width vector from that tensor's read cursor into the
  destination register.
* ``ST_TNSR`` appends the source register's vector to its named output
  tensor.
* ``LD_G`` gathers the row selected by the next index from the kernel's
  index stream into a FIFO (the vector-local-memory staging);
  :meth:`TpcInterpreter.pop_gathered` hands rows to reduction code.
* ALU opcodes operate on registers element-wise; ``MAC`` accumulates
  into its destination register, matching ``v_<t>_mac_b``.  A scalar
  operand named ``"scale"`` may be bound for SCALE/TRIAD-style kernels.

The interpreter supports the streaming/element-wise kernel family the
paper's microbenchmarks use; anything outside that subset raises
:class:`InterpreterError` rather than guessing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.tpc.isa import Instruction, MemoryKind, Opcode
from repro.tpc.kernel import TpcKernel


class InterpreterError(RuntimeError):
    """Raised when a kernel body is outside the executable subset."""


class _TensorStream:
    """Sequential read cursor over a flat tensor."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64).ravel()
        self.cursor = 0

    def read(self, count: int) -> np.ndarray:
        end = min(self.cursor + count, self.data.size)
        out = self.data[self.cursor:end]
        self.cursor = end
        if out.size < count:  # final partial vector: zero-pad
            out = np.concatenate([out, np.zeros(count - out.size)])
        return out

    @property
    def exhausted(self) -> bool:
        return self.cursor >= self.data.size


class TpcInterpreter:
    """Executes a :class:`TpcKernel`'s body over bound tensors."""

    def __init__(
        self,
        kernel: TpcKernel,
        inputs: Dict[str, np.ndarray],
        scalars: Optional[Dict[str, float]] = None,
        gather_indices: Optional[Sequence[int]] = None,
        gather_table: Optional[np.ndarray] = None,
    ) -> None:
        self.kernel = kernel
        self._streams = {name: _TensorStream(data) for name, data in inputs.items()}
        self._scalars = dict(scalars or {})
        self._outputs: Dict[str, List[np.ndarray]] = {}
        self._registers: Dict[str, np.ndarray] = {}
        self._gather_indices = list(gather_indices or [])
        self._gather_cursor = 0
        self._gather_table = (
            None if gather_table is None else np.asarray(gather_table, dtype=np.float64)
        )
        self._gathered: List[np.ndarray] = []

    # ------------------------------------------------------------------
    def _lanes(self, instr: Instruction) -> int:
        itemsize = instr.dtype.itemsize
        return max(1, instr.access_bytes // itemsize)

    def _source(self, name: str) -> np.ndarray:
        if name in self._registers:
            return self._registers[name]
        if name in self._scalars:
            return np.asarray(self._scalars[name], dtype=np.float64)
        raise InterpreterError(f"undefined register or scalar {name!r}")

    def _execute_alu(self, instr: Instruction) -> None:
        if instr.opcode is Opcode.LOOP_END:
            return
        sources = [self._source(s) for s in instr.sources]
        scale = self._scalars.get("scale", 1.0)
        if instr.opcode is Opcode.ADD:
            value = sources[0] + (sources[1] if len(sources) > 1 else sources[0])
        elif instr.opcode is Opcode.SUB:
            value = sources[0] - sources[1]
        elif instr.opcode is Opcode.MUL:
            value = sources[0] * (sources[1] if len(sources) > 1 else scale)
        elif instr.opcode is Opcode.MAC:
            # v_<t>_mac_b accumulates into its destination; registers
            # are cleared at trip boundaries, so a fresh destination
            # starts from zero.
            acc = self._registers.get(instr.dest, np.asarray(0.0))
            if len(sources) == 2:
                value = acc + sources[0] * sources[1]
            elif len(sources) == 1:
                value = acc + sources[0] * scale
            else:
                raise InterpreterError("MAC needs one or two sources")
        elif instr.opcode is Opcode.MAX:
            value = np.maximum(sources[0], sources[1])
        elif instr.opcode is Opcode.MIN:
            value = np.minimum(sources[0], sources[1])
        elif instr.opcode is Opcode.EXP:
            value = np.exp(sources[0])
        elif instr.opcode is Opcode.RECIP:
            value = 1.0 / sources[0]
        elif instr.opcode is Opcode.MOV:
            value = sources[0]
        else:
            raise InterpreterError(f"opcode {instr.opcode} not executable")
        if instr.dest is None:
            raise InterpreterError(f"{instr.opcode} needs a destination")
        self._registers[instr.dest] = np.asarray(value, dtype=np.float64)

    def _execute_memory(self, instr: Instruction) -> None:
        if instr.tensor is None:
            raise InterpreterError(f"memory instruction {instr} carries no tensor")
        lanes = self._lanes(instr)
        if instr.memory_kind is MemoryKind.STREAM_LOAD:
            stream = self._streams.get(instr.tensor)
            if stream is None:
                raise InterpreterError(f"input tensor {instr.tensor!r} not bound")
            if instr.dest is None:
                raise InterpreterError("stream load without a destination")
            self._registers[instr.dest] = stream.read(lanes)
        elif instr.memory_kind is MemoryKind.STREAM_STORE:
            value = np.atleast_1d(self._source(instr.sources[0]))
            self._outputs.setdefault(instr.tensor, []).append(value)
        elif instr.memory_kind is MemoryKind.RANDOM_LOAD:
            if self._gather_table is None:
                raise InterpreterError("gather executed without a gather table")
            if self._gather_cursor < len(self._gather_indices):
                index = self._gather_indices[self._gather_cursor]
                self._gather_cursor += 1
                self._gathered.append(self._gather_table[index])
        else:
            raise InterpreterError(f"memory kind {instr.memory_kind} not executable")

    # ------------------------------------------------------------------
    def run(self, trim_to: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Execute every trip; returns the concatenated output tensors.

        ``trim_to`` truncates each output to that many elements (the
        final trip may zero-pad past the input length).
        """
        for _ in range(self.kernel.trips):
            # Registers are private per trip (the compiler re-zeroes
            # accumulators at loop entry).
            self._registers.clear()
            for instr in self.kernel.body:
                if instr.memory_kind is not MemoryKind.NONE:
                    self._execute_memory(instr)
                else:
                    self._execute_alu(instr)
            if self._streams and all(s.exhausted for s in self._streams.values()):
                break
        outputs = {
            name: np.concatenate(chunks) for name, chunks in self._outputs.items()
        }
        if trim_to is not None:
            outputs = {name: data[:trim_to] for name, data in outputs.items()}
        return outputs

    def pop_gathered(self) -> List[np.ndarray]:
        """Rows staged by gather instructions (vector local memory)."""
        rows, self._gathered = self._gathered, []
        return rows
