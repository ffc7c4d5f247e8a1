"""Graph IR, fusion, pipelining, scheduling, and the compiler facade."""

import pytest

from repro.graph import Engine, Graph, GraphCompiler
from repro.graph.fusion import fuse_elementwise
from repro.graph.ir import Op
from repro.graph.pipeliner import pipeline_mme_tpc, pipelined_duration
from repro.graph.scheduler import schedule
from repro.hw.spec import GAUDI2_SPEC


def _simple_graph():
    g = Graph("test")
    gemm = g.add_op("gemm", Engine.MME, 100e-6, 1e6, 1e6, sliceable=True)
    act = g.add_op("gelu", Engine.TPC, 40e-6, 1e6, 1e6, inputs=[gemm],
                   fusable=True, sliceable=True)
    bias = g.add_op("bias", Engine.TPC, 10e-6, 1e6, 1e6, inputs=[act],
                    fusable=True, sliceable=True)
    return g


def _decoder_slice():
    """A GEMM -> softmax -> scale -> GEMM slice of a decoder layer."""
    g = Graph("decoder-slice")
    qk = g.add_op("qk_gemm", Engine.MME, 120e-6, 4e6, 8e6, sliceable=True)
    sm = g.add_op("softmax", Engine.TPC, 50e-6, 8e6, 8e6, inputs=[qk],
                  fusable=True, sliceable=True)
    scale = g.add_op("scale", Engine.TPC, 10e-6, 8e6, 8e6, inputs=[sm],
                     fusable=True, sliceable=True)
    g.add_op("pv_gemm", Engine.MME, 110e-6, 8e6, 4e6, inputs=[scale], sliceable=True)
    return g


class TestIr:
    def test_topological_insertion_enforced(self):
        g = Graph()
        dangling = Op("x", Engine.TPC, 1e-6)
        with pytest.raises(ValueError, match="not in the graph"):
            g.add_op("y", Engine.TPC, 1e-6, inputs=[dangling])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Op("x", Engine.TPC, -1.0)

    def test_consumers(self):
        g = _simple_graph()
        gemm = g.ops[0]
        assert [c.name for c in g.consumers(gemm)] == ["gelu"]

    def test_validate_catches_reordering(self):
        g = _simple_graph()
        g.ops.reverse()
        with pytest.raises(ValueError, match="before its producer"):
            g.validate()

    def test_len_and_iter(self):
        g = _simple_graph()
        assert len(g) == 3
        assert [op.name for op in g] == ["gemm", "gelu", "bias"]


class TestFusion:
    def test_chain_collapses(self):
        fused = fuse_elementwise(_simple_graph())
        names = [op.name for op in fused.ops]
        assert names == ["gemm", "gelu+bias"]

    def test_fused_op_keeps_boundary_traffic(self):
        fused = fuse_elementwise(_simple_graph())
        merged = fused.ops[1]
        assert merged.input_bytes == 1e6
        assert merged.output_bytes == 1e6
        assert merged.compute_time == pytest.approx(50e-6)

    def test_multi_consumer_blocks_fusion(self):
        g = Graph()
        a = g.add_op("a", Engine.TPC, 1e-6, fusable=True)
        g.add_op("b", Engine.TPC, 1e-6, inputs=[a], fusable=True)
        g.add_op("c", Engine.TPC, 1e-6, inputs=[a], fusable=True)
        fused = fuse_elementwise(g)
        assert len(fused.ops) == 3

    def test_mme_ops_never_fused(self):
        g = Graph()
        a = g.add_op("a", Engine.MME, 1e-6, fusable=True)
        g.add_op("b", Engine.TPC, 1e-6, inputs=[a], fusable=True)
        fused = fuse_elementwise(g)
        assert len(fused.ops) == 2


class TestPipeliner:
    def test_pipelined_duration_formula(self):
        assert pipelined_duration(100e-6, 60e-6, slices=10, slice_overhead=0.0) == (
            pytest.approx(106e-6)
        )

    def test_pipelined_duration_beats_serial(self):
        assert pipelined_duration(100e-6, 60e-6) < 160e-6

    def test_invalid_slices_raise(self):
        with pytest.raises(ValueError):
            pipelined_duration(1.0, 1.0, slices=0)

    def test_mme_tpc_pair_merged(self):
        out = pipeline_mme_tpc(fuse_elementwise(_simple_graph()))
        assert len(out.ops) == 1
        assert out.ops[0].annotations["pipelined"] == ("gemm", "gelu+bias")

    def test_non_sliceable_pairs_left_alone(self):
        g = Graph()
        a = g.add_op("a", Engine.MME, 1e-6, sliceable=False)
        g.add_op("b", Engine.TPC, 1e-6, inputs=[a], sliceable=True)
        out = pipeline_mme_tpc(g)
        assert len(out.ops) == 2

    def test_tpc_tpc_pairs_not_pipelined(self):
        g = Graph()
        a = g.add_op("a", Engine.TPC, 1e-6, sliceable=True)
        g.add_op("b", Engine.TPC, 1e-6, inputs=[a], sliceable=True)
        out = pipeline_mme_tpc(g)
        assert len(out.ops) == 2


class TestScheduler:
    def test_serial_schedule_sums_durations(self):
        g = _simple_graph()
        timeline = schedule(g, GAUDI2_SPEC, op_dispatch_overhead=0.0)
        assert timeline.total_time >= 150e-6  # compute plus traffic

    def test_entries_contiguous(self):
        timeline = schedule(_simple_graph(), GAUDI2_SPEC)
        for prev, cur in zip(timeline.entries, timeline.entries[1:]):
            assert cur.start == pytest.approx(prev.end)

    def test_engine_busy_accounting(self):
        timeline = schedule(_simple_graph(), GAUDI2_SPEC)
        assert timeline.engine_busy(Engine.MME) == pytest.approx(100e-6, rel=0.01)
        assert timeline.engine_busy(Engine.TPC) == pytest.approx(50e-6, rel=0.01)

    def test_activity_profile_bounded(self):
        timeline = schedule(_simple_graph(), GAUDI2_SPEC)
        profile = timeline.activity_profile(GAUDI2_SPEC)
        assert 0 <= profile.matrix_busy <= 1
        assert 0 <= profile.memory_util <= 1


class TestCompiler:
    def test_full_pipeline_faster_than_unoptimized(self):
        optimized = GraphCompiler().compile(_simple_graph())
        naive = GraphCompiler(enable_fusion=False, enable_pipelining=False).compile(
            _simple_graph()
        )
        assert optimized.total_time < naive.total_time

    def test_fusion_alone_helps(self):
        fused = GraphCompiler(enable_pipelining=False).compile(_simple_graph())
        naive = GraphCompiler(enable_fusion=False, enable_pipelining=False).compile(
            _simple_graph()
        )
        assert fused.total_time < naive.total_time

    def test_each_pass_shortens_a_decoder_slice(self):
        """Ablation: fusion and pipelining each help, and both together most."""

        def total(**passes):
            return GraphCompiler(**passes).compile(_decoder_slice()).total_time

        full = total()
        assert full < total(enable_pipelining=False) < total(
            enable_fusion=False, enable_pipelining=False
        )
        assert full < total(enable_fusion=False)

    def test_mme_annotation_pass(self):
        g = Graph()
        gemm = g.add_op("gemm", Engine.MME, 1e-6, sliceable=False)
        gemm.annotations["gemm_shape"] = (1, 512, 4096, 64)
        compiled = GraphCompiler(enable_pipelining=False).compile(g)
        annotated = compiled.graph.ops[0]
        assert "mme_geometry" in annotated.annotations

    def test_energy_positive(self):
        compiled = GraphCompiler().compile(_simple_graph())
        assert compiled.energy() > 0
        assert compiled.average_power() >= GAUDI2_SPEC.power.idle_watts

    def test_op_counts(self):
        compiler = GraphCompiler()
        counts = compiler.num_ops_by_engine(_simple_graph())
        assert counts[Engine.MME] == 1
        assert counts[Engine.TPC] == 2
