"""Every headline scalar of the paper, measured vs reported.

The bands live in ``repro.figures.report_md.TRACKED_CLAIMS`` and are
recorded, with the paper values, in EXPERIMENTS.md.  They are
deliberately wide: our substrate is a performance model, not the
authors' testbed, so we assert the *shape* (who wins and by roughly
what factor).  The orderings below relate two measured values and
carry no band.
"""


class TestEmbeddingClaims:
    def test_sdk_operator_well_below_fbgemm(self, assert_in_band):
        """Paper: the SDK embedding operator reaches ~37 % of FBGEMM."""
        assert_in_band("headline", "sdk_embedding_vs_a100")

    def test_custom_single_table_beats_sdk(self, assert_in_band):
        """Paper: the custom SingleTable is ~1.6x the SDK operator."""
        assert_in_band("headline", "custom_single_over_sdk")

    def test_batched_near_parity_large_vectors(self, assert_in_band):
        """Paper: ~95 % of A100 for >=256 B vectors."""
        assert_in_band("fig15", "batched_vs_a100_large_vectors")

    def test_batched_half_speed_small_vectors(self, assert_in_band):
        """Paper: ~47 % of A100 below 256 B."""
        assert_in_band("fig15", "batched_vs_a100_small_vectors")


class TestVllmClaims:
    def test_opt_over_base(self, assert_in_band):
        """Paper: 7.4x average at 0 % padding."""
        assert_in_band("fig17", "opt_over_base_mean")

    def test_opt_over_base_with_padding(self, assert_in_band):
        """Paper: up to 55.7x with 90 % padding."""
        assert_in_band("fig17", "opt_over_base_max_padding")

    def test_paged_attention_vs_a100(self, assert_in_band):
        """Paper: vLLM_opt reaches ~45 % of the CUDA kernel."""
        assert_in_band("fig17", "opt_vs_a100_mean")

    def test_end_to_end_parity(self, assert_in_band):
        """Paper: comparable end-to-end serving throughput."""
        assert_in_band("fig17", "e2e_throughput_ratio")


class TestEndToEndClaims:
    def test_llm_speedup(self, assert_in_band):
        """Paper: ~1.47x single-device LLM speedup."""
        assert_in_band("fig12", "single_device_mean_speedup")

    def test_llm_energy_efficiency(self, assert_in_band):
        """Paper: ~48 % better single-device energy efficiency."""
        assert_in_band("fig13", "single_device_mean_energy_efficiency")

    def test_recsys_slowdown(self, assert_in_band):
        """Paper: ~20 % average RecSys slowdown."""
        assert_in_band("headline", "recsys_mean_speedup")

    def test_recsys_energy_deficit(self, assert_in_band):
        """Paper: ~28 % average RecSys energy-efficiency deficit."""
        assert_in_band("fig11", "mean_energy_efficiency")


class TestDirectionalConsistency:
    """The paper's key takeaways as orderings."""

    def test_llm_favours_gaudi_recsys_favours_a100(self, claim_results):
        llm = claim_results["fig12"].summary["single_device_mean_speedup"]
        recsys = claim_results["headline"].summary["recsys_mean_speedup"]
        assert llm > 1.0 > recsys

    def test_vllm_gap_narrows_end_to_end(self, claim_results):
        """Amdahl's law: the 2.2x attention gap shrinks end to end."""
        fig17 = claim_results["fig17"].summary
        assert fig17["e2e_throughput_ratio"] > fig17["opt_vs_a100_mean"]

    def test_multi_device_speedup_grows_with_device_count(self, claim_results):
        fig12 = claim_results["fig12"].summary
        assert (fig12["tp8_mean_speedup"] > fig12["tp4_mean_speedup"]
                > fig12["tp2_mean_speedup"] > 1.0)

    def test_scale_gains_most_from_unrolling(self, claim_results):
        fig08 = claim_results["fig08"].summary
        assert fig08["unroll_gain_scale"] > max(fig08["unroll_gain_add"],
                                                fig08["unroll_gain_triad"])

    def test_a100_leads_allreduce_at_two_devices(self, claim_results):
        """Gaudi-2's P2P mesh leaves most ports idle at 2 devices."""
        fig10 = claim_results["fig10"].summary
        assert fig10["a100_allreduce_util_2dev"] > 4 * fig10["gaudi_allreduce_util_2dev"]
