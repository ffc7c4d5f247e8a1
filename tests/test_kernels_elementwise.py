"""Element-wise cost helpers + functional semantics."""

import numpy as np
import pytest

from repro.hw.spec import GAUDI2_SPEC
from repro.kernels.elementwise import (
    activation_cost,
    elementwise_cost,
    gelu,
    layernorm_cost,
    relu,
    rmsnorm,
    silu,
)


class TestCosts:
    def test_bytes_accounting(self):
        cost = elementwise_cost(GAUDI2_SPEC, 1000, num_inputs=2)
        assert cost.input_bytes == 2 * 1000 * 2
        assert cost.output_bytes == 1000 * 2

    def test_compute_scales_with_flops(self):
        one = elementwise_cost(GAUDI2_SPEC, 1000, flops_per_element=1.0)
        four = elementwise_cost(GAUDI2_SPEC, 1000, flops_per_element=4.0)
        assert four.compute_time == pytest.approx(4 * one.compute_time)

    def test_activation_heavier_than_copy(self):
        act = activation_cost(GAUDI2_SPEC, 1000)
        copy = elementwise_cost(GAUDI2_SPEC, 1000, flops_per_element=1.0)
        assert act.compute_time > copy.compute_time

    def test_layernorm_positive(self):
        assert layernorm_cost(GAUDI2_SPEC, 1000).compute_time > 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            elementwise_cost(GAUDI2_SPEC, -1)
        with pytest.raises(ValueError):
            elementwise_cost(GAUDI2_SPEC, 10, num_inputs=0)


class TestFunctional:
    def test_relu(self):
        np.testing.assert_allclose(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_silu_at_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_silu_approaches_identity(self):
        assert silu(np.array([20.0]))[0] == pytest.approx(20.0, rel=1e-6)

    def test_gelu_symmetric_ish(self):
        x = np.array([3.0])
        assert gelu(x)[0] == pytest.approx(3.0, abs=0.02)
        assert gelu(-x)[0] == pytest.approx(0.0, abs=0.02)

    def test_rmsnorm_unit_scale(self):
        x = np.array([[3.0, 4.0]])
        out = rmsnorm(x, np.ones(2))
        rms = np.sqrt((out**2).mean())
        assert rms == pytest.approx(1.0, rel=1e-3)
