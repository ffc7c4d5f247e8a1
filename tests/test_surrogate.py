"""The certified surrogate fit behind the ``design_space`` figure.

The contract under test: every fitted surface carries a held-out
validation certificate within its tolerance, and a model whose
certificate breaches it refuses to load; fitting is bit-identical
across runs and across the serial/process-pool paths; and the
surrogate design-space sweep agrees with its exact twin.
"""

import json

import pytest

from repro.audit.errors import ConfigError
from repro.core.journal import canonical_json
from repro.surrogate import fit_backend, get_surrogate_model, surface_names
from repro.surrogate.fitting import SurrogateModel


@pytest.fixture(scope="module")
def model():
    return get_surrogate_model("gaudi2")


class TestCertificates:
    def test_every_surface_certified(self, model):
        assert set(model.surfaces) == set(surface_names())
        for name in model.surfaces:
            certificate = model.certificate(name)
            assert certificate["holdout"] > 0
            assert 0.0 <= certificate["mean_rel_err"] <= certificate["max_rel_err"]
            assert certificate["max_rel_err"] <= model.tolerance(name)

    def test_structural_surfaces_are_tight(self, model):
        # The GEMM/attention fits recover the exact basis functions, so
        # they certify far below the tabulated surfaces' tolerance.
        assert model.certificate("gemm")["max_rel_err"] < 1e-3
        assert model.certificate("attention")["max_rel_err"] < 1e-3

    def test_tolerance_breach_refuses_to_load(self, model):
        payload = json.loads(canonical_json(model.to_payload()))
        payload["surfaces"]["gemm"]["certificate"]["max_rel_err"] = 0.5
        with pytest.raises(ConfigError, match="refusing to load"):
            SurrogateModel.from_payload(payload)

    def test_schema_mismatch_rejected(self, model):
        payload = json.loads(canonical_json(model.to_payload()))
        payload["schema"] = "repro-surrogate/v0"
        with pytest.raises(ConfigError, match="schema"):
            SurrogateModel.from_payload(payload)


class TestDeterminism:
    def test_fit_is_bit_identical_across_runs(self):
        first = fit_backend("gaudi2")
        second = fit_backend("gaudi2")
        assert canonical_json(first.to_payload()) == canonical_json(second.to_payload())

    def test_parallel_fit_matches_serial(self):
        serial = fit_backend("gaudi2")
        parallel = fit_backend("gaudi2", workers=2)
        assert canonical_json(serial.to_payload()) == canonical_json(parallel.to_payload())

    def test_seed_changes_holdout_not_fit(self):
        base = fit_backend("gaudi2", surfaces=["tpc_stream"])
        other = fit_backend("gaudi2", seed=3, surfaces=["tpc_stream"])
        assert (base.surfaces["tpc_stream"]["predictor"]
                == other.surfaces["tpc_stream"]["predictor"])
        assert base.certificate("tpc_stream")["seed"] == 0
        assert other.certificate("tpc_stream")["seed"] == 3


class TestSweepAndRendering:
    def test_design_space_matches_exact_twin(self):
        from repro.surrogate.sweep import design_space_sweep

        fast = design_space_sweep("gaudi2", fast=True)
        exact = design_space_sweep("gaudi2", fast=True, exact=True)
        assert fast["cells"] == exact["cells"]
        best = fast["best"]
        assert (best["tp"], best["batch"], best["context"]) == (
            exact["best"]["tp"], exact["best"]["batch"], exact["best"]["context"]
        )
        for s_row, e_row in zip(fast["rows"], exact["rows"]):
            assert s_row["step_time"] == pytest.approx(e_row["step_time"], rel=0.05)
            assert s_row["ttft"] == pytest.approx(e_row["ttft"], rel=0.05)

    def test_design_space_figure_registered(self):
        from repro.figures import run_figure

        result = run_figure(figure_id="design_space", fast=True)
        assert result.summary["cells"] == len(result.rows) > 0
        assert "Tok/s" in result.text
