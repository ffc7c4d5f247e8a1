"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CollectiveOp
from repro.comm.busbw import bus_bandwidth_factor
from repro.hw.backend import GAUDI2, get_backend, list_backends
from repro.hw.device import A100Device, Gaudi2Device
from repro.hw.memory import HbmModel
from repro.hw.power import ActivityProfile, PowerModel
from repro.hw.spec import A100_SPEC, GAUDI2_SPEC
from repro.hw.systolic import SystolicArray, SystolicGeometry, blocked_gemm_traffic
from repro.tpc.launcher import partition_members
from repro.tpc.intrinsics import as_bf16, v_gather, v_scatter

_GAUDI = Gaudi2Device()
_A100 = A100Device()

dims = st.integers(min_value=1, max_value=4096)


class TestGemmProperties:
    @given(m=dims, k=dims, n=dims)
    @settings(max_examples=60, deadline=None)
    def test_utilization_in_unit_interval(self, m, k, n):
        for device in (_GAUDI, _A100):
            result = device.gemm(m, k, n)
            assert 0.0 < result.utilization <= 1.0
            assert result.time > 0.0

    @given(m=dims, k=dims, n=dims)
    @settings(max_examples=40, deadline=None)
    def test_time_monotone_in_each_dimension(self, m, k, n):
        base = _GAUDI.gemm(m, k, n).time
        assert _GAUDI.gemm(2 * m, k, n).time >= base * 0.999
        assert _GAUDI.gemm(m, 2 * k, n).time >= base * 0.999
        assert _GAUDI.gemm(m, k, 2 * n).time >= base * 0.999

    @given(m=dims, k=dims, n=dims)
    @settings(max_examples=40, deadline=None)
    def test_configurable_mme_never_slower_than_fixed(self, m, k, n):
        flexible = Gaudi2Device(mme_configurable=True)
        fixed = Gaudi2Device(mme_configurable=False)
        assert flexible.gemm(m, k, n).time <= fixed.gemm(m, k, n).time * 1.0001

    @given(
        m=dims, k=dims, n=dims,
        itemsize=st.sampled_from([1, 2, 4]),
        sram=st.integers(min_value=1 << 16, max_value=1 << 27),
    )
    @settings(max_examples=50, deadline=None)
    def test_traffic_at_least_compulsory(self, m, k, n, itemsize, sram):
        traffic = blocked_gemm_traffic(m, k, n, itemsize, sram)
        compulsory = itemsize * (m * k + k * n + m * n)
        assert traffic >= compulsory * 0.999


class TestSystolicProperties:
    @given(
        h=st.sampled_from([64, 128, 256, 512]),
        w=st.sampled_from([64, 128, 256, 512]),
        m=dims, k=dims, n=dims,
    )
    @settings(max_examples=50, deadline=None)
    def test_utilization_bounded_by_active_fraction(self, h, w, m, k, n):
        geometry = SystolicGeometry(h, w)
        array = SystolicArray(geometry, 1.0)
        util = array.utilization(m, k, n, total_macs=131072)
        assert util <= geometry.active_macs / 131072 + 1e-9


class TestMemoryProperties:
    @given(size=st.integers(min_value=1, max_value=8192))
    @settings(max_examples=60, deadline=None)
    def test_random_bandwidth_positive_and_capped(self, size):
        for spec in (GAUDI2_SPEC, A100_SPEC):
            hbm = HbmModel(spec.memory)
            bw = hbm.random_bandwidth(size)
            assert 0 < bw <= spec.memory.bandwidth

    @given(granules=st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_random_bandwidth_monotone_at_granule_boundaries(self, granules):
        # Useful bandwidth is only monotone across granule-aligned sizes
        # (just past a boundary the moved/useful ratio jumps).
        hbm = HbmModel(GAUDI2_SPEC.memory)
        size = granules * GAUDI2_SPEC.memory.min_access_bytes
        next_size = size + GAUDI2_SPEC.memory.min_access_bytes
        assert hbm.random_bandwidth(next_size) >= hbm.random_bandwidth(size) * 0.999


class TestPowerProperties:
    @given(
        m=st.floats(0, 1), a=st.floats(0, 1), v=st.floats(0, 1),
        u=st.floats(0, 1), c=st.floats(0, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_power_between_idle_and_tdp(self, m, a, v, u, c):
        profile = ActivityProfile(
            matrix_busy=m, matrix_active_fraction=a, vector_busy=v,
            memory_util=u, comm_busy=c,
        )
        for spec in (GAUDI2_SPEC, A100_SPEC):
            watts = PowerModel(spec.power).power(profile)
            assert spec.power.idle_watts <= watts <= spec.power.tdp_watts


class TestCommProperties:
    @given(
        op=st.sampled_from(list(CollectiveOp)),
        participants=st.integers(min_value=2, max_value=8),
        size=st.integers(min_value=1024, max_value=1 << 26),
    )
    @settings(max_examples=60, deadline=None)
    def test_bus_utilization_in_unit_interval(self, op, participants, size):
        for key in list_backends():
            report = get_backend(key).collective_library().run(op, size, participants)
            assert 0.0 < report.bus_utilization <= 1.0, key

    @given(
        op=st.sampled_from(list(CollectiveOp)),
        participants=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_busbw_factor_at_most_two(self, op, participants):
        assert 0 < bus_bandwidth_factor(op, participants) <= 2.0

    @given(
        participants=st.integers(min_value=2, max_value=8),
        small=st.integers(min_value=1024, max_value=1 << 20),
        factor=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_monotone_in_size(self, participants, small, factor):
        library = get_backend(GAUDI2).collective_library()
        a = library.all_reduce(small, participants).time
        b = library.all_reduce(small * factor, participants).time
        assert b >= a


class TestPartitionProperties:
    @given(
        members=st.integers(min_value=0, max_value=10_000),
        tpcs=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_conserves_and_balances(self, members, tpcs):
        counts = partition_members(members, tpcs)
        assert sum(counts) == members
        assert max(counts) - min(counts) <= 1
        assert max(counts) == math.ceil(members / tpcs) if members else True


class TestNumericProperties:
    @given(data=st.lists(st.floats(-1e30, 1e30, allow_nan=False), min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_bf16_truncation_bounded(self, data):
        values = np.array(data, dtype=np.float32)
        truncated = as_bf16(values)
        finite = np.isfinite(values) & (np.abs(values) > 1e-30)
        rel = np.abs(truncated[finite] - values[finite]) / np.abs(values[finite])
        assert (rel < 2**-7).all()

    @given(
        rows=st.integers(min_value=1, max_value=32),
        cols=st.integers(min_value=1, max_value=8),
        n_idx=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_scatter_roundtrip(self, rows, cols, n_idx, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(rows, cols))
        indices = rng.integers(0, rows, size=n_idx)
        gathered = v_gather(table, indices)
        rebuilt = v_scatter(table, indices, gathered)
        np.testing.assert_allclose(rebuilt, table)
