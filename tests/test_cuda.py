"""A100 CUDA kernel analog."""

import pytest

from repro.cuda import CudaLauncher
from repro.hw.spec import A100_SPEC


@pytest.fixture(scope="module")
def launcher():
    return CudaLauncher(A100_SPEC)


class TestStream:
    def test_memory_bound_at_low_intensity(self, launcher):
        result = launcher.launch_stream("add", 10**7, 1.0, 6.0)
        assert result.bottleneck == "hbm-bandwidth"

    def test_compute_bound_at_high_intensity(self, launcher):
        result = launcher.launch_stream("addN", 10**7, 512.0, 6.0)
        assert result.bottleneck == "simd-compute"

    def test_fma_doubles_compute_ceiling(self, launcher):
        add = launcher.launch_stream("add", 10**7, 256.0, 6.0, uses_fma=False)
        mac = launcher.launch_stream("triad", 10**7, 256.0, 6.0, uses_fma=True)
        assert mac.achieved_flops == pytest.approx(2 * add.achieved_flops, rel=0.01)

    def test_triad_saturation_matches_paper(self, launcher):
        """Paper: A100 TRIAD saturates around 38.2 TFLOPS (98 % of 39)."""
        result = launcher.launch_stream("triad", 10**7, 1024.0, 6.0, uses_fma=True)
        assert result.achieved_flops / 1e12 == pytest.approx(39.0, rel=0.03)

    def test_few_sms_limit_bandwidth(self, launcher):
        few = launcher.launch_stream("add", 10**7, 1.0, 6.0, num_sms=4)
        many = launcher.launch_stream("add", 10**7, 1.0, 6.0, num_sms=108)
        assert few.time > many.time

    def test_invalid_elements_raise(self, launcher):
        with pytest.raises(ValueError):
            launcher.launch_stream("x", 0, 1.0, 6.0)


class TestGather:
    def test_full_occupancy_gather_near_random_ceiling(self, launcher):
        result = launcher.launch_gather("g", 10**6, 256, parallel_accesses=10**6)
        ceiling = A100_SPEC.memory.bandwidth * A100_SPEC.memory.random_efficiency
        busy = result.time - result.launch_overhead
        assert result.useful_bytes / busy == pytest.approx(ceiling, rel=0.05)

    def test_small_launch_underutilizes(self, launcher):
        small = launcher.launch_gather("g", 1024, 256, parallel_accesses=1024)
        big = launcher.launch_gather("g", 1024, 256, parallel_accesses=10**6)
        assert small.time > big.time

    def test_l2_resident_working_set(self, launcher):
        hot = launcher.launch_gather("g", 10**5, 256, working_set_bytes=8 << 20,
                                     parallel_accesses=10**6)
        cold = launcher.launch_gather("g", 10**5, 256, working_set_bytes=1 << 31,
                                      parallel_accesses=10**6)
        assert hot.time < cold.time

    def test_invalid_args_raise(self, launcher):
        with pytest.raises(ValueError):
            launcher.launch_gather("g", 0, 256)
        with pytest.raises(ValueError):
            launcher.launch_gather("g", 100, 0)
