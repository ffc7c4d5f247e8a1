"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.cluster import FleetConfig
from repro.core.journal import RunJournal, encode


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_args(self):
        args = build_parser().parse_args(["gemm", "64", "128", "256", "--dtype", "fp32"])
        assert (args.m, args.k, args.n) == (64, 128, 256)
        assert args.dtype == "fp32"

    def test_bad_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gemm", "1", "1", "1", "--dtype", "fp64"])


class TestInputErrors:
    """Malformed flag values exit 2 with one ``error:`` line, never a
    traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--fail-device", "3"], "--fail-device: bad fault spec '3'"),
        (["chaos", "--fail-device", "x@t=1"], "--fail-device: invalid literal for int()"),
        (["fleet", "--chaos", "crash:gaudi2-0"], "bad fault spec 'gaudi2-0'"),
        (["fleet", "--tenants", "gold:tier=x"], "bad tenant spec 'gold:tier=x'"),
        (["fleet", "--nodes", "4 gaudi2"], "--nodes: bad pool '4 gaudi2'"),
        (["fleet", "--admission"], "admission control requires at least one tenant"),
        # Below MIN_LINK_FACTOR a collective takes unboundedly long.
        (["fleet", "--chaos", "fabric:gaudi2-0@t=1,factor=1e-45"],
         "fabric factor must be 0 or in [0.01, 1), got 1e-45"),
        (["chaos", "--degrade-link", "0-1@t=1,factor=1e-45"],
         "--degrade-link: link factor must be 0 or in [0.01, 1], got 1e-45"),
        (["serve", "--requests", "0"], "--requests must be >= 1, got 0"),
        (["trace", "--max-batch", "0"], "--max-batch must be >= 1, got 0"),
        (["top", "--tp", "0"], "--tp must be >= 1, got 0"),
        (["serve", "--tp", "3"], "--tp 3 does not divide the 32 query heads"),
        (["serve", "--tp", "16"], "--tp 16 does not divide the 8 KV heads"),
        (["serve", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["fleet", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["chaos", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["figures", "--id", "nope"], "--id: unknown figure 'nope'"),
        # The weights alone exceed one device's memory at TP 1.
        (["serve", "--model", "70b"],
         "Llama-3.1-70B-Instruct on Gaudi-2 at TP 1 leaves room for 0 KV tokens"),
    ])
    def test_bad_spec_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, message", [
        (None, "no valid journal header"),
        (lambda config: config.update(tp=0), "tp must be >= 1, got 0"),
        (lambda config: config.update(nodes=[]), "fleet needs at least one node pool"),
        (lambda config: config.pop("nodes"), "written by a different run configuration"),
        (lambda config: config.update(tp="8"), "FleetConfig.tp: expected int, got '8'"),
        # Would stretch every collective without bound (see MIN_LINK_FACTOR).
        (lambda config: config["plan"]["events"].append({
            "time": 1.0, "kind": "fabric_degrade", "node": "gaudi2-0",
            "factor": 1e-45,
        }), "fabric factor must be 0 or in [0.01, 1), got 1e-45"),
        (lambda config: config.update(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["missing-journal", "tp-0", "empty-nodes", "no-nodes", "tp-str",
            "tiny-link-factor", "negative-seed"])
    def test_bad_journal_exits_2(self, capsys, tmp_path, edit, message):
        """``repro resume`` treats a missing or malformed journal as bad
        input: one ``error:`` line and exit 2."""
        run_dir = tmp_path / "run"
        if edit is not None:
            config = encode(FleetConfig(num_requests=4))
            edit(config)
            RunJournal(run_dir).write_header({"tool": "fleet", "config": config})
        assert main(["resume", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_reproduce_unknown_figure_exits_2(self, capsys, tmp_path):
        """An unknown ``--id`` is rejected before the run directory is
        created."""
        out = tmp_path / "run"
        assert main(["reproduce", "--out", str(out), "--id", "table1", "--id", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --id: unknown figure 'nope'")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--device", "gaudi2"], "unrecognized arguments: --device"),
        (["bench", "--check"], "invalid choice: 'bench'"),
    ], ids=["device-flag", "bench-verb"])
    def test_removed_input_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Gaudi-2" in out and "1.5x" in out

    def test_gemm(self, capsys):
        assert main(["gemm", "2048", "2048", "2048"]) == 0
        out = capsys.readouterr().out
        assert "MME" in out and "CTA" in out

    def test_gemm_gaudi3(self, capsys):
        assert main(["gemm", "4096", "4096", "4096", "--backend", "gaudi3"]) == 0
        assert "Gaudi-3" in capsys.readouterr().out

    def test_figures_single(self, capsys, tmp_path):
        assert main(["figures", "--id", "table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert "matrix_tflops_ratio" in capsys.readouterr().out

    def test_serve(self, capsys):
        assert main(["serve", "--requests", "4", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "TTFT" in out

    def test_smi_both_vendors(self, capsys):
        assert main(["smi", "--backend", "gaudi2", "--workload", "llm"]) == 0
        assert main(["smi", "--backend", "a100", "--workload", "recsys"]) == 0
        out = capsys.readouterr().out
        assert "Gaudi-2" in out and "A100" in out

    def test_figures_markdown(self, capsys):
        assert main(["figures", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "Paper vs measured" in out
        assert "**NO**" not in out
