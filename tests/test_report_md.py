"""The paper-claims registry and the EXPERIMENTS.md tables it writes."""

import pathlib

from repro.figures.report_md import (
    TRACKED_CLAIMS,
    TrackedClaim,
    all_claims_in_band,
    experiments_markdown,
    mean_abs_log_error,
)

_EXPERIMENTS_MD = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: Mean |ln(measured/paper)| over the claims with a paper number.  A
#: change may lower this ceiling, never raise it.
_FIDELITY_CEILING = 0.147


class TestTrackedClaims:
    def test_every_claim_names_a_real_summary_key(self, claim_results):
        keys = [(claim.figure_id, claim.summary_key) for claim in TRACKED_CLAIMS]
        assert len(set(keys)) == len(keys)
        for claim in TRACKED_CLAIMS:
            claim.measured(claim_results)

    def test_all_claims_in_band(self, claim_results):
        """The EXPERIMENTS.md calibration must hold on every run."""
        assert all_claims_in_band(claim_results), experiments_markdown(claim_results)

    def test_band_check(self):
        claim = TrackedClaim("x", "y", "d", 1.0, (0.5, 1.5))
        assert claim.check(1.0)
        assert not claim.check(2.0)

    def test_claims_cover_every_evaluation_figure(self):
        covered = {claim.figure_id for claim in TRACKED_CLAIMS}
        assert covered >= {
            "table1", "table2", "fig04", "fig05", "fig07", "fig08", "fig09",
            "fig10", "fig11", "fig12", "fig13", "fig15", "fig17", "headline",
        }

    def test_fidelity_ceiling(self, claim_results):
        assert mean_abs_log_error(claim_results) <= _FIDELITY_CEILING


class TestMarkdown:
    def test_renders_table(self, claim_results):
        text = experiments_markdown(claim_results)
        assert "| Claim | Paper | Measured |" in text
        figures = {claim.figure_id for claim in TRACKED_CLAIMS}
        assert text.count("\n| ") == len(TRACKED_CLAIMS) + len(figures)

    def test_no_out_of_band_rows(self, claim_results):
        assert "**NO**" not in experiments_markdown(claim_results)

    def test_experiments_md_carries_the_live_tables(self, claim_results):
        """EXPERIMENTS.md's claims block is ``repro figures --markdown``
        verbatim; regenerate it after any change to a tracked number."""
        text = _EXPERIMENTS_MD.read_text(encoding="utf-8")
        block = text.split("<!-- claims:begin -->\n", 1)[1].split("<!-- claims:end -->", 1)[0]
        assert block == experiments_markdown(claim_results)
