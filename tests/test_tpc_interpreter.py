"""Functional interpreter: the timed instruction stream computes real
results."""

import numpy as np
import pytest

from repro.hw.spec import DType
from repro.kernels.stream import StreamOp, reference_result, run_stream
from repro.tpc import TpcKernelBuilder
from repro.tpc.isa import Opcode
from tests.tpc_interpreter import InterpreterError, TpcInterpreter

_N = 1024  # elements; multiple of the 128-lane bf16 vector


def _build(op: StreamOp, unroll: int = 1):
    def body(b):
        if op is StreamOp.SCALE:
            x = b.load_tensor("a")
            b.store_tensor("b", b.vec(Opcode.MUL, x))
        elif op is StreamOp.ADD:
            x = b.load_tensor("a")
            y = b.load_tensor("b")
            b.store_tensor("c", b.vec(Opcode.ADD, x, y))
        else:
            x = b.load_tensor("a")
            y = b.load_tensor("b")
            b.store_tensor("c", b.vec_into(Opcode.MAC, y, x))

    return TpcKernelBuilder(op.value, dtype=DType.BF16).build_loop(
        body, iterations=_N // 128, unroll=unroll
    )


class TestStreamSemantics:
    """The exact scheduled instruction streams compute STREAM's answers."""

    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_add(self, unroll):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=_N), rng.normal(size=_N)
        out = TpcInterpreter(_build(StreamOp.ADD, unroll), {"a": a, "b": b}).run()
        np.testing.assert_allclose(out["c"], a + b)

    @pytest.mark.parametrize("unroll", [1, 4])
    def test_scale(self, unroll):
        rng = np.random.default_rng(1)
        a = rng.normal(size=_N)
        out = TpcInterpreter(
            _build(StreamOp.SCALE, unroll), {"a": a}, scalars={"scale": 3.0}
        ).run()
        np.testing.assert_allclose(out["b"], 3.0 * a)

    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_triad(self, unroll):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=_N), rng.normal(size=_N)
        out = TpcInterpreter(
            _build(StreamOp.TRIAD, unroll), {"a": a, "b": b}, scalars={"scale": 3.0}
        ).run()
        np.testing.assert_allclose(
            out["c"], reference_result(StreamOp.TRIAD, a, b, scalar=3.0)
        )

    def test_matches_kernel_library_emission(self, gaudi):
        """The kernels timed in Figure 8 execute correctly too."""
        result = run_stream(device=gaudi, op=StreamOp.TRIAD, num_elements=_N, num_cores=1, unroll=2)
        assert result.achieved_gflops > 0  # built + timed
        kernel = _build(StreamOp.TRIAD, unroll=2)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=_N), rng.normal(size=_N)
        out = TpcInterpreter(kernel, {"a": a, "b": b}, scalars={"scale": 3.0}).run()
        np.testing.assert_allclose(out["c"], 3.0 * a + b)


class TestEdgeCases:
    def test_partial_final_vector_zero_padded_then_trimmed(self):
        n = 200  # not a multiple of 128
        def body(b):
            x = b.load_tensor("a")
            b.store_tensor("b", b.vec(Opcode.MUL, x))

        kernel = TpcKernelBuilder("scale").build_loop(body, iterations=2)
        a = np.arange(float(n))
        out = TpcInterpreter(kernel, {"a": a}, scalars={"scale": 2.0}).run(trim_to=n)
        np.testing.assert_allclose(out["b"], 2.0 * a)

    def test_chained_ops(self):
        def body(b):
            x = b.load_tensor("a")
            doubled = b.vec(Opcode.MUL, x)
            clipped = b.vec(Opcode.MAX, doubled, x)
            b.store_tensor("out", clipped)

        kernel = TpcKernelBuilder("chain").build_loop(body, iterations=8)
        a = np.random.default_rng(4).normal(size=1024)
        out = TpcInterpreter(kernel, {"a": a}, scalars={"scale": 2.0}).run()
        np.testing.assert_allclose(out["out"], np.maximum(2 * a, a))

    def test_gather_staging(self):
        def body(b):
            for _ in range(4):
                b.gather("table", access_bytes=256)

        kernel = TpcKernelBuilder("gather").build_loop(body, iterations=2)
        table = np.arange(24.0).reshape(6, 4)
        indices = [5, 0, 3, 3, 1, 2, 4, 0]
        interp = TpcInterpreter(
            kernel, {}, gather_indices=indices, gather_table=table
        )
        interp.run()
        rows = interp.pop_gathered()
        np.testing.assert_allclose(rows[0], table[5])
        assert len(rows) == 8

    def test_unbound_input_raises(self):
        kernel = _build(StreamOp.ADD)
        with pytest.raises(InterpreterError, match="not bound"):
            TpcInterpreter(kernel, {"a": np.ones(128)}).run()

    def test_gather_without_table_raises(self):
        def body(b):
            b.gather("t", access_bytes=256)

        kernel = TpcKernelBuilder("g").build_loop(body, iterations=1)
        with pytest.raises(InterpreterError, match="gather table"):
            TpcInterpreter(kernel, {}).run()

    def test_undefined_register_raises(self):
        from repro.tpc.isa import Instruction
        from repro.tpc.kernel import TpcKernel

        body = [Instruction(Opcode.ADD, dest="r", sources=("ghost",))]
        kernel = TpcKernel(name="bad", body=body, trips=1)
        with pytest.raises(InterpreterError, match="undefined"):
            TpcInterpreter(kernel, {}).run()
