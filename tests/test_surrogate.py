"""Surrogate cost models: fitting, artifacts, backend facade, audit.

The contract under test (ISSUE 10): every fitted surface carries a
held-out validation certificate within its tolerance; artifacts are
checksummed and byte-identical across save/load; fitting is
bit-identical across runs and across the serial/process-pool paths;
the ``@surrogate`` backend facade serves in-domain queries from the
fit and falls back to the exact model elsewhere; and the audit layer's
``SurrogateEquivalence`` spot check catches a corrupted predictor.
"""

import json

import pytest

from repro.audit import audit_scope
from repro.audit.errors import ConfigError, SurrogateEquivalenceError
from repro.core.journal import canonical_json
from repro.hw.backend import get_backend, list_backends, resolve_backend
from repro.hw.spec import DType, get_spec
from repro.surrogate import (
    SURROGATE_COUNTERS,
    artifact_path,
    fit_backend,
    get_surrogate_model,
    load_model,
    render_counters,
    save_model,
    set_surrogate_model,
    surface_names,
    validate_model,
)
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

    def test_validate_model_fresh_samples(self, model):
        report = validate_model(model, seed=7, points=8)
        assert set(report) == set(model.surfaces)
        assert all(entry["ok"] for entry in report.values())

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


class TestArtifacts:
    def test_save_load_save_byte_identical(self, model, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_predicts_identically(self, model, tmp_path):
        path = save_model(model, tmp_path / "m.json")
        loaded = load_model(path)
        assert float(loaded.gemm_predict(1024, 4096, 4096, 1)["time"]) \
            == float(model.gemm_predict(1024, 4096, 4096, 1)["time"])

    def test_checksum_tamper_rejected(self, model, tmp_path):
        path = save_model(model, tmp_path / "m.json")
        record = json.loads(path.read_text())
        record["payload"]["surfaces"]["gemm"]["tolerance"] = 0.99
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigError, match="checksum"):
            load_model(path)

    def test_missing_artifact_typed_error(self, tmp_path):
        with pytest.raises(ConfigError, match="repro surrogate fit"):
            load_model(tmp_path / "absent.json")

    def test_garbage_artifact_typed_error(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"payload": {"schema"')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_model(path)

    def test_artifact_path_layout(self):
        assert artifact_path("gaudi2").name == "gaudi2@surrogate.json"
        assert artifact_path("a100", "/tmp/x").parent.as_posix() == "/tmp/x"


class TestBackendFacade:
    def test_registry_resolution_is_lazy(self):
        key = resolve_backend("gaudi2@surrogate")
        assert key == "gaudi2@surrogate"
        assert key in list_backends()
        assert get_spec(key) is get_backend("gaudi2").spec

    def test_in_domain_gemm_matches_model(self, model):
        device = get_backend("gaudi2@surrogate")
        result = device.gemm(512, 4096, 4096)
        assert result.time == pytest.approx(
            float(model.gemm_predict(512, 4096, 4096, 1)["time"]), rel=1e-12
        )
        assert result.config_label.startswith("MME")

    def test_fp32_falls_back_to_exact(self):
        before = SURROGATE_COUNTERS["gemm.fallback"]
        device = get_backend("gaudi2@surrogate", fresh=True)
        exact = get_backend("gaudi2").gemm(1024, 1024, 1024, DType.FP32)
        result = device.gemm(1024, 1024, 1024, DType.FP32)
        assert result.time == exact.time
        assert SURROGATE_COUNTERS["gemm.fallback"] > before

    def test_out_of_domain_shape_falls_back(self):
        before = SURROGATE_COUNTERS["gemm.fallback"]
        device = get_backend("gaudi2@surrogate", fresh=True)
        exact = get_backend("gaudi2").gemm(32768, 1024, 1024)
        assert device.gemm(32768, 1024, 1024).time == exact.time
        assert SURROGATE_COUNTERS["gemm.fallback"] > before

    def test_collectives_served_from_tables(self, model):
        from repro.comm.collectives import CollectiveOp

        device = get_backend("gaudi2@surrogate")
        library = device.collective_library(8)
        report = library.run(CollectiveOp.ALL_REDUCE, 2**20, 8)
        assert report.time == pytest.approx(
            float(model.collective_time("all_reduce", float(2**20), 8)), rel=1e-12
        )
        assert report.bus_bandwidth > 0

    def test_off_lattice_participants_fall_back(self):
        from repro.comm.collectives import CollectiveOp

        device = get_backend("gaudi2@surrogate")
        exact = get_backend("gaudi2").collective_library(8)
        library = device.collective_library(8)
        before = SURROGATE_COUNTERS["collective.fallback"]
        report = library.run(CollectiveOp.ALL_REDUCE, 2**20, 3)
        assert report.time == exact.run(CollectiveOp.ALL_REDUCE, 2**20, 3).time
        assert SURROGATE_COUNTERS["collective.fallback"] > before

    def test_degraded_fabric_is_priced_exactly(self):
        device = get_backend("gaudi2@surrogate")
        library = device.collective_library(8)
        rebound = library.with_topology(library.topology)
        assert type(rebound).__name__ != "SurrogateCollectiveLibrary"

    def test_partial_fabric_is_exact(self):
        device = get_backend("gaudi2@surrogate")
        assert type(device.collective_library(4)).__name__ \
            != "SurrogateCollectiveLibrary"


class TestAuditSpotCheck:
    def test_spot_check_passes_on_healthy_model(self):
        with audit_scope("strict", sample_fraction=1.0) as auditor:
            device = get_backend("gaudi2@surrogate", fresh=True)
            device.gemm(640, 2048, 2048)
            assert auditor.surrogate_verified > 0
            assert auditor.total_violations == 0

    def test_corrupted_predictor_raises_strict(self, model):
        payload = json.loads(canonical_json(model.to_payload()))
        for piece in payload["surfaces"]["gemm"]["predictor"]["pieces"]:
            piece["alpha"] *= 3.0  # certificate left untouched: runtime
            # spot-checking, not load-time enforcement, must catch this.
        corrupted = SurrogateModel.from_payload(payload)
        set_surrogate_model("gaudi2", corrupted)
        try:
            with audit_scope("strict", sample_fraction=1.0):
                device = get_backend("gaudi2@surrogate", fresh=True)
                with pytest.raises(SurrogateEquivalenceError):
                    device.gemm(4096, 4096, 4096)
        finally:
            set_surrogate_model("gaudi2", model)

    def test_sample_mode_counts_instead_of_raising(self, model):
        payload = json.loads(canonical_json(model.to_payload()))
        for piece in payload["surfaces"]["gemm"]["predictor"]["pieces"]:
            piece["alpha"] *= 3.0
        set_surrogate_model("gaudi2", SurrogateModel.from_payload(payload))
        try:
            with audit_scope("sample", sample_fraction=1.0) as auditor:
                device = get_backend("gaudi2@surrogate", fresh=True)
                device.gemm(4096, 4096, 4096)
                assert auditor.violation_counts[SurrogateEquivalenceError.check] > 0
        finally:
            set_surrogate_model("gaudi2", model)


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

    def test_gemm_grid_sweep_totals_agree(self):
        from repro.surrogate.sweep import gemm_grid_sweep

        surrogate = gemm_grid_sweep("gaudi2", lo=64, hi=2048, per_octave=4)
        exact = gemm_grid_sweep("gaudi2", lo=64, hi=2048, per_octave=4, exact=True)
        assert surrogate["points"] == exact["points"]
        assert surrogate["total_time"] == pytest.approx(exact["total_time"], rel=0.02)

    def test_design_space_figure_registered(self):
        from repro.figures import run_figure

        result = run_figure(figure_id="design_space", fast=True)
        assert result.summary["cells"] == len(result.rows) > 0
        assert "Tok/s" in result.text

    def test_render_counters_lists_certificates(self, model):
        set_surrogate_model("gaudi2", model)
        text = render_counters()
        assert "gaudi2@surrogate:" in text
        assert "max err" in text
        assert "spot checks" in text


class TestCli:
    def test_fit_validate_sweep_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path)
        assert main(["surrogate", "fit", "--backend", "gaudi2",
                     "--out", out]) == 0
        assert (tmp_path / "gaudi2@surrogate.json").exists()
        assert main(["surrogate", "validate", "--backend", "gaudi2",
                     "--out", out, "--spot", "4"]) == 0
        assert main(["surrogate", "sweep", "--backend", "gaudi2"]) == 0
        captured = capsys.readouterr().out
        assert "every surface within tolerance" in captured
        assert "best cell" in captured

    def test_validate_missing_artifact_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["surrogate", "validate", "--backend", "gaudi2",
                     "--out", str(tmp_path / "empty")]) == 2
        assert "repro surrogate fit" in capsys.readouterr().err

    def test_top_renders_surrogate_section(self, capsys):
        from repro.cli import main

        assert main(["top", "--backend", "gaudi2@surrogate", "--tp", "1",
                     "--requests", "4", "--samples", "2"]) == 0
        captured = capsys.readouterr().out
        assert "Surrogate cost models:" in captured
        assert "gaudi2@surrogate:" in captured
        assert "fast path" in captured
