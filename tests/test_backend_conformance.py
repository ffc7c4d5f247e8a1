"""Backend conformance suite.

Every backend in the registry -- built-in or plugged in -- must satisfy
the same physical and API invariants: positive costs, monotone scaling,
roofline sanity, working fabric/power/smi surfaces, and memo-cache
equivalence.  The suite parametrizes over ``list_backends()`` so a
newly registered platform is held to the contract automatically.
"""

import pytest

from repro.audit.errors import ConfigError
from repro.hw.backend import (
    A100,
    DEFAULT_COMPARISON,
    GAUDI2,
    Backend,
    BackendInfo,
    BackendRegistry,
    comparison_backends,
    backend_info,
    get_backend,
    list_backends,
    resolve_backend,
)
from repro.hw.spec import DType, get_spec

ALL_BACKENDS = list_backends()


def _device(key):
    return get_backend(key)


# ---------------------------------------------------------------------------
# Protocol surface
# ---------------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_satisfies_backend_protocol(self, key):
        assert isinstance(_device(key), Backend)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_capability_attributes(self, key):
        device = _device(key)
        assert device.family in ("gaudi", "cuda")
        assert device.smi_style in ("hl-smi", "nvidia-smi")
        assert 0.0 < device.attention_efficiency <= 1.0
        assert device.name == device.spec.name

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_family_matches_registration(self, key):
        assert _device(key).family == backend_info(key).family

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_decode_attention_is_valid(self, key):
        from repro.models.llama import DecodeAttention, default_decode_attention

        device = _device(key)
        assert default_decode_attention(device) is DecodeAttention(
            device.decode_attention
        )

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_peaks_positive(self, key):
        device = _device(key)
        assert device.peak_matrix_flops > 0
        assert device.peak_vector_flops > 0
        assert device.peak_bandwidth > 0
        assert device.kernel_launch_overhead >= 0


# ---------------------------------------------------------------------------
# GEMM cost model
# ---------------------------------------------------------------------------
class TestGemmInvariants:
    SHAPES = [(256, 256, 256), (1024, 1024, 1024), (4096, 4096, 4096),
              (8192, 8192, 16)]

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_costs_positive_and_bounded(self, key, shape):
        device = _device(key)
        m, k, n = shape
        result = device.gemm(m, k, n)
        assert result.time > 0
        assert result.achieved_flops > 0
        assert 0.0 < result.utilization <= 1.0
        assert result.config_label

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_roofline_sanity(self, key, shape):
        """Achieved throughput never exceeds the spec-sheet peak."""
        device = _device(key)
        m, k, n = shape
        result = device.gemm(m, k, n)
        assert result.achieved_flops <= device.peak_matrix_flops * (1 + 1e-9)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    @pytest.mark.parametrize("dim", ["m", "k", "n"])
    def test_monotone_in_each_dimension(self, key, dim):
        """Doubling one GEMM dimension never makes it faster."""
        device = _device(key)
        base = {"m": 1024, "k": 1024, "n": 1024}
        times = []
        for scale in (1, 2, 4):
            shape = dict(base)
            shape[dim] = base[dim] * scale
            times.append(device.gemm(shape["m"], shape["k"], shape["n"]).time)
        assert times[0] <= times[1] * (1 + 1e-9)
        assert times[1] <= times[2] * (1 + 1e-9)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_monotone_in_batch(self, key):
        device = _device(key)
        t1 = device.gemm(512, 512, 512, batch=1).time
        t4 = device.gemm(512, 512, 512, batch=4).time
        assert t1 <= t4 * (1 + 1e-9)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_matrix_utilization_matches_gemm(self, key):
        device = _device(key)
        assert device.matrix_utilization(2048, 2048, 2048) == pytest.approx(
            device.gemm(2048, 2048, 2048).utilization
        )

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_memo_cache_equivalence(self, key):
        """The cached singleton and a fresh instance agree exactly."""
        cached = get_backend(key)
        fresh = get_backend(key, fresh=True)
        assert fresh is not cached
        for m, k, n in self.SHAPES:
            a = cached.gemm(m, k, n)
            b = fresh.gemm(m, k, n)
            assert a.time == b.time
            assert a.achieved_flops == b.achieved_flops
            assert a.utilization == b.utilization


# ---------------------------------------------------------------------------
# Memory / vector / power / fabric surfaces
# ---------------------------------------------------------------------------
class TestPlatformSurfaces:
    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_hbm_model(self, key):
        device = _device(key)
        assert device.hbm.stream_time(2**20) > 0
        # Random access never beats the streamed peak, and the device's
        # own min-access granularity is always fully efficient.
        assert device.hbm.random_bandwidth(device.spec.memory.min_access_bytes) \
            <= device.spec.memory.bandwidth * (1 + 1e-9)
        assert device.hbm.granularity_efficiency(
            device.spec.memory.min_access_bytes
        ) == pytest.approx(1.0)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_vector_unit(self, key):
        device = _device(key)
        assert device.vector.elementwise_time(2**20, 1.0, DType.BF16) > 0

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_power_model_bounds(self, key):
        from repro.hw.power import ActivityProfile

        device = _device(key)
        idle = device.power.power(ActivityProfile(0.0, 0.0, 0.0))
        busy = device.power.power(ActivityProfile(1.0, 1.0, 1.0))
        assert 0 < idle < busy <= device.spec.power.tdp_watts * (1 + 1e-9)

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_collective_library(self, key):
        device = _device(key)
        library = device.collective_library(num_devices=8)
        result = library.all_reduce(2**20, 8)
        assert result.time > 0
        assert result.bus_bandwidth > 0
        # The fabric is the backend's own InterconnectSpec, field by field.
        interconnect = device.spec.interconnect
        topology = library.topology
        assert topology.num_devices == 8
        assert topology.base_latency == interconnect.base_latency
        if interconnect.kind == "p2p-mesh":
            assert topology.links_per_pair == interconnect.links_per_pair
            assert topology.link_bandwidth == interconnect.link_bandwidth
        else:
            assert topology.per_device_bandwidth == interconnect.per_device_bandwidth
        assert library.protocol_efficiency == interconnect.protocol_efficiency
        assert library.per_device_bandwidth == interconnect.per_device_bandwidth

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_smi_readout(self, key):
        from repro.hw.power import ActivityProfile
        from repro.tools.smi import smi

        device = _device(key)
        sample = smi(device, ActivityProfile(0.5, 0.2, 0.4))
        assert sample.device == device.spec.name
        assert device.spec.name in sample.render()

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_attention_kernel_dispatch(self, key):
        from repro.kernels.attention import AttentionConfig, attention_time

        config = AttentionConfig(batch=4, q_heads=32, kv_heads=8,
                                 head_dim=128, seq_q=1024, seq_kv=1024)
        result = attention_time(_device(key), config)
        assert result.time > 0
        assert result.compute_time > 0 and result.memory_time > 0

    @pytest.mark.parametrize("key", ALL_BACKENDS)
    def test_spec_lookup_matches_instance(self, key):
        assert get_spec(key) is _device(key).spec


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_aliases_resolve_to_same_instance(self):
        for key in ALL_BACKENDS:
            info = backend_info(key)
            for alias in (*info.aliases, info.display_name, key.upper()):
                assert resolve_backend(alias) == key
                assert get_backend(alias) is get_backend(key)

    def test_unknown_backend_typed_error(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            resolve_backend("tpu-v5")

    def test_did_you_mean_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean 'gaudi2'"):
            resolve_backend("guadi2")

    def test_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            resolve_backend("tpu-v5")

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry()
        info = BackendInfo(key="x", display_name="X", vendor="V",
                           family="cuda", factory=lambda: None)
        registry.register(info)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register(info)
        registry.register(info, replace=True)  # explicit replace allowed

    def test_comparison_backends_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKENDS", raising=False)
        assert comparison_backends() == DEFAULT_COMPARISON

    def test_comparison_backends_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKENDS", "hopper, gaudi2,gaudi2")
        assert comparison_backends() == ("h100", GAUDI2)

    def test_comparison_backends_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKENDS", "gaudi2,warp9")
        with pytest.raises(ConfigError, match="unknown backend"):
            comparison_backends()

    def test_default_comparison_is_the_paper_pair(self):
        assert DEFAULT_COMPARISON == (GAUDI2, A100)

    def test_builtin_set(self):
        assert {GAUDI2, A100, "h100", "gaudi3"} <= set(ALL_BACKENDS)
