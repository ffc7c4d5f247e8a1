"""Command-line interface."""

import os
import pathlib
import subprocess
import sys

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
        (["chaos", "--fail-device", "x@t=1"], "device must be an integer, got 'x'"),
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
        (["figures", "--markdown", "--backend", "h100"],
         "--markdown: the paper claims compare the default gaudi2/a100 pair"),
        # Every spec value must be a finite number; int fields integral.
        (["fleet", "--tenants", "gold:tier=nan"], "tier must be an integer, got 'nan'"),
        (["fleet", "--tenants", "gold:tier=1e400"], "tier must be an integer, got '1e400'"),
        (["fleet", "--tenants", "gold:tier=1.5"], "tier must be an integer, got '1.5'"),
        (["chaos", "--flap-link", "0-1@t=1,period=0.5,cycles=inf"],
         "--flap-link: bad fault spec '0-1@t=1,period=0.5,cycles=inf': "
         "cycles must be an integer, got 'inf'"),
        (["chaos", "--flap-link", "0-1@t=1,period=0.5,cycles=2.7"],
         "cycles must be an integer, got '2.7'"),
        (["fleet", "--chaos", "crash:gaudi2-0@t=1,t=2"],
         "--chaos crash: bad fault spec 'gaudi2-0@t=1,t=2': duplicate key t="),
        (["fleet", "--chaos", "crash:gaudi2-0@t=nan"],
         "t must be a finite number, got 'nan'"),
        (["fleet", "--chaos", "brownout:gaudi2-0@t=1,factor=0.5,until=nan"],
         "until must be a finite number, got 'nan'"),
        (["chaos", "--fail-device", "3@t=nan"],
         "--fail-device: bad fault spec '3@t=nan': t must be a finite number"),
        (["chaos", "--fail-device", "3.5@t=1"], "device must be an integer, got '3.5'"),
        (["fleet", "--upgrade", "start=nan"],
         "--upgrade: bad upgrade spec 'start=nan': start must be a finite number"),
        # NaN fails every positivity check.
        (["fleet", "--rate", "nan"], "rate must be positive, got nan"),
        (["fleet", "--timeout", "nan"], "timeout must be positive, got nan"),
        (["chaos", "--rate", "nan"], "rate must be positive, got nan"),
        (["fleet", "--deadline", "-1"], "deadline must be positive, got -1.0"),
        (["fleet", "--breaker", "--breaker-cooldown", "nan"],
         "cooldown must be positive, got nan"),
        # The chaos box has max(tp, 1) devices.
        (["chaos", "--fail-device", "99@t=0.1"],
         "fault event 't=0.1 device-fail dev99' targets a device outside the box"),
        (["chaos", "--straggler", "99@t=0.1,factor=0.5"],
         "targets a device outside the box (devices 0..7)"),
        (["chaos", "--degrade-link", "0-99@t=0.1,factor=0.5"],
         "targets a device outside the box (devices 0..7)"),
        (["fleet", "--tenants", "a:tier=0;a:tier=1"], "duplicate tenant names"),
        # --workers is checked before any verb runs, even where unused.
        (["figures", "--workers", "abc"],
         "--workers must be a non-negative integer or 'auto', got 'abc'"),
        (["figures", "--workers", "1.5"], "got '1.5'"),
        (["figures", "--workers", "-1"], "got '-1'"),
        (["figures", "--id", "table1", "--workers", "abc"], "got 'abc'"),
        (["reproduce", "--workers", "x"], "--workers must be a non-negative integer"),
        # An empty table is no sample of the run.
        (["top", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["top", "--samples", "-2"], "--samples must be >= 1, got -2"),
        # The fitted surrogate is no backend.
        (["serve", "--backend", "gaudi2@surrogate"],
         "unknown backend 'gaudi2@surrogate'; registered backends: a100, gaudi2, gaudi3, h100"),
        (["fleet", "--nodes", "2x gaudi2@surrogate"],
         "unknown backend 'gaudi2@surrogate'; registered backends: a100, gaudi2, gaudi3, h100"),
        (["figures", "--id", "fig04", "--backend", "a100@surrogate"],
         "unknown backend 'a100@surrogate'; registered backends: a100, gaudi2, gaudi3, h100"),
        # A TP degree must split the query and KV heads on every verb.
        (["fleet", "--nodes", "1x gaudi2", "--requests", "4", "--tp", "3"],
         "tp 3 does not divide the 32 query heads of Llama-3.1-8B-Instruct"),
        (["fleet", "--nodes", "1x gaudi2", "--requests", "4", "--tp", "16"],
         "tp 16 does not divide the 8 KV heads of Llama-3.1-8B-Instruct"),
        (["chaos", "--requests", "4", "--tp", "3"],
         "tp 3 does not divide the 32 query heads of Llama-3.1-8B-Instruct"),
        (["chaos", "--model", "70b", "--requests", "4", "--tp", "16"],
         "tp 16 does not divide the 8 KV heads of Llama-3.1-70B-Instruct"),
    ])
    def test_bad_spec_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("verb, flag", [("trace", "--out"), ("fleet", "--trace-out")])
    def test_output_in_a_missing_directory_exits_2(self, capsys, tmp_path, verb, flag):
        """Checked before the run, not found when writing after it."""
        out = tmp_path / "missing" / "dir" / "t.json"
        assert main([verb, flag, str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: directory {out.parent} does not exist\n"
        )
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("value", ["abc", "1.5", "-1"])
    def test_bad_workers_env_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        assert main(["figures"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: REPRO_WORKERS must be a non-negative integer or 'auto', got {value!r}\n"
        )

    @pytest.mark.parametrize("name, value, message", [
        ("REPRO_WATCHDOG_STEPS", "abc",
         "REPRO_WATCHDOG_STEPS must be a positive integer, got 'abc'"),
        ("REPRO_WATCHDOG_STEPS", "-5",
         "REPRO_WATCHDOG_STEPS must be a positive integer, got '-5'"),
        ("REPRO_WATCHDOG_STEPS", "2.5",
         "REPRO_WATCHDOG_STEPS must be a positive integer, got '2.5'"),
        # NaN would arm a watchdog that never trips.
        ("REPRO_WATCHDOG_WALL", "nan",
         "REPRO_WATCHDOG_WALL must be a positive finite number, got 'nan'"),
        ("REPRO_WATCHDOG_WALL", "inf",
         "REPRO_WATCHDOG_WALL must be a positive finite number, got 'inf'"),
        ("REPRO_WATCHDOG_WALL", "0",
         "REPRO_WATCHDOG_WALL must be a positive finite number, got '0'"),
    ])
    def test_bad_watchdog_env_exits_2(self, capsys, monkeypatch, name, value, message):
        monkeypatch.setenv(name, value)
        assert main(["serve", "--requests", "8"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        (lambda config: config.update(checkpoint_interval=0),
         "checkpoint_interval must be >= 1, got 0"),
        (lambda config: config.update(admission_watermark=0.0),
         "admission_watermark must be in (0, 1], got 0.0"),
        (lambda config: config.update(num_kv_blocks=0),
         "num_kv_blocks must be >= 1, got 0"),
        (lambda config: config.update(tp=3),
         "tp 3 does not divide the 32 query heads of Llama-3.1-8B-Instruct"),
    ], ids=["missing-journal", "tp-0", "empty-nodes", "no-nodes", "tp-str",
            "tiny-link-factor", "negative-seed", "checkpoint-0", "watermark-0",
            "kv-blocks-0", "tp-3"])
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
        (["surrogate", "fit", "--backend", "gaudi2"], "invalid choice: 'surrogate'"),
    ], ids=["device-flag", "bench-verb", "surrogate-verb"])
    def test_removed_input_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestExampleScripts:
    @staticmethod
    def _bad_workers_error(tmp_path, args, env):
        """Run ``reproduce_paper.py`` expecting a usage error: exit 2,
        no traceback, no ``--out`` directory; returns the one ``error:``
        line."""
        root = pathlib.Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, str(root / "examples" / "reproduce_paper.py"),
             *args, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(root / "src"), **env},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert not (tmp_path / "out").exists()
        return errors[0]

    def test_reproduce_paper_bad_workers_exits_2(self, tmp_path):
        """The example script reports a bad ``--workers`` the way the CLI
        does: exit 2 and one ``error:`` line naming the flag."""
        assert "--workers" in self._bad_workers_error(
            tmp_path, ["--workers", "abc"], {}
        )

    def test_reproduce_paper_bad_workers_env_exits_2(self, tmp_path):
        """``REPRO_WORKERS`` is checked as early as the flag."""
        assert "REPRO_WORKERS" in self._bad_workers_error(
            tmp_path, [], {"REPRO_WORKERS": "abc"}
        )


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

    def test_comparison_flags_do_not_leak_into_the_next_call(self, capsys, monkeypatch):
        """A three-way ``figures`` exports its set for its workers only
        while it runs; the next call in the process sees the default pair."""
        monkeypatch.delenv("REPRO_BACKENDS", raising=False)
        assert main(["figures", "--id", "table1"]) == 0
        default = capsys.readouterr().out
        assert main(["figures", "--id", "table1", "--backend", "gaudi2",
                     "--backend", "a100", "--backend", "h100"]) == 0
        assert "h100_" in capsys.readouterr().out
        assert "REPRO_BACKENDS" not in os.environ
        assert main(["figures", "--id", "table1"]) == 0
        assert capsys.readouterr().out == default

    def test_callers_comparison_env_is_restored(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKENDS", "gaudi2,h100")
        assert main(["figures", "--id", "table1", "--backend", "gaudi2",
                     "--backend", "a100"]) == 0
        assert os.environ["REPRO_BACKENDS"] == "gaudi2,h100"
        assert main(["figures", "--id", "table1", "--backend", "nope"]) == 2
        assert os.environ["REPRO_BACKENDS"] == "gaudi2,h100"

    def test_audit_flag_does_not_leak_into_the_next_call(self, capsys, monkeypatch):
        """``--audit`` holds for its own call; afterwards the process
        audits as ``REPRO_AUDIT`` said before it."""
        from repro.audit import get_auditor

        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        before = get_auditor()
        assert main(["serve", "--requests", "4", "--audit", "strict"]) == 0
        assert "REPRO_AUDIT" not in os.environ
        assert get_auditor() is before
        monkeypatch.setenv("REPRO_AUDIT", "sample")
        assert main(["serve", "--requests", "4", "--audit", "strict"]) == 0
        assert os.environ["REPRO_AUDIT"] == "sample"
        assert get_auditor() is before

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
        assert "| Claim | Paper | Measured |" in out
        assert "**NO**" not in out
