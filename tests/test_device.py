"""Device facades."""

import pytest

from repro.audit.errors import ConfigError
from repro.hw.backend import get_backend
from repro.hw.device import A100Device, Gaudi2Device


class TestFactory:
    def test_get_device_types(self):
        assert isinstance(get_backend("gaudi2"), Gaudi2Device)
        assert isinstance(get_backend("a100"), A100Device)

    def test_cache_returns_same_instance(self):
        assert get_backend("gaudi2") is get_backend("hpu")

    def test_fresh_returns_new_instance(self):
        assert get_backend("a100", fresh=True) is not get_backend("a100", fresh=True)

    def test_unknown_raises_typed_config_error(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("mi300")

    def test_unknown_lists_registered_backends(self):
        with pytest.raises(ConfigError, match="gaudi2"):
            get_backend("mi300")

    def test_typo_gets_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'gaudi2'"):
            get_backend("guadi2")


class TestCommonInterface:
    def test_gemm_returns_common_result(self, gaudi, a100):
        for device in (gaudi, a100):
            result = device.gemm(1024, 1024, 1024)
            assert result.time > 0
            assert 0 < result.utilization <= 1
            assert result.flops == 2 * 1024**3

    def test_batched_gemm_flops(self, gaudi):
        result = gaudi.gemm(128, 256, 128, batch=8)
        assert result.flops == 2 * 8 * 128 * 256 * 128

    def test_a100_active_fraction_always_one(self, a100):
        assert a100.gemm(64, 64, 64).active_mac_fraction == 1.0

    def test_gaudi_config_label_names_mme(self, gaudi):
        assert gaudi.gemm(512, 512, 512).config_label.startswith("MME")

    def test_a100_config_label_names_cta(self, a100):
        assert a100.gemm(512, 512, 512).config_label.startswith("CTA")

    def test_peaks_exposed(self, gaudi, a100):
        assert gaudi.peak_matrix_flops == pytest.approx(432e12)
        assert a100.peak_vector_flops == pytest.approx(39e12)
        assert gaudi.peak_bandwidth == pytest.approx(2.45e12)

    def test_matrix_utilization_helper(self, gaudi):
        assert gaudi.matrix_utilization(4096, 4096, 4096) == pytest.approx(
            gaudi.gemm(4096, 4096, 4096).utilization
        )

    def test_mme_configurability_toggle(self):
        fixed = Gaudi2Device(mme_configurable=False)
        flexible = Gaudi2Device(mme_configurable=True)
        assert fixed.gemm(16384, 16384, 64).time >= flexible.gemm(16384, 16384, 64).time

    def test_repr(self, gaudi, a100):
        assert "Gaudi-2" in repr(gaudi)
        assert "A100" in repr(a100)
