"""Crash-safe journaling, worker-death retry, and bit-identical resume."""

import json
import os
import subprocess
import sys

import pytest

from repro.audit import JournalError, WorkerRetryExhausted
from repro.core.journal import RunJournal, canonical_json, checksum
from repro.core.parallel import map_with_retries
from repro.core.reproduce import DIE_EXIT_CODE, reproduce, resume
from repro.hw import get_backend
from repro.models.llama import DecodeAttention, LLAMA_3_1_8B, LlamaCostModel
from repro.serving import LlmServingEngine, fixed_length_requests
from repro.serving.loadgen import run_load_sweep

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestJournal:
    def test_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "run")
        journal.write_header({"tool": "t", "seed": 1})
        journal.append("point-0000", {"value": 1.5})
        journal.append("point-0001", {"value": [1, 2, 3]})
        header, points, skipped = RunJournal(tmp_path / "run").load()
        assert header == {"tool": "t", "seed": 1}
        assert points == {"point-0000": {"value": 1.5},
                          "point-0001": {"value": [1, 2, 3]}}
        assert skipped == 0

    def test_directory_or_file_path(self, tmp_path):
        assert RunJournal(tmp_path).path == tmp_path / "journal.jsonl"
        explicit = tmp_path / "custom.jsonl"
        assert RunJournal(explicit).path == explicit

    def test_last_valid_write_wins(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.append("p", {"v": 1})
        journal.append("p", {"v": 2})
        assert journal.completed_keys() == {"p": {"v": 2}}

    def test_corrupt_lines_skipped(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.write_header({"tool": "t"})
        journal.append("good", {"v": 1})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "key": "torn", "crc": 0, "pay')
            handle.write("\n")
            handle.write('{"kind": "point", "key": "badcrc", "crc": 12345, '
                         '"payload": {"v": 9}}\n')
            handle.write("not json at all\n")
        header, points, skipped = journal.load()
        assert header == {"tool": "t"}
        assert points == {"good": {"v": 1}}
        assert skipped == 3

    def test_header_mismatch_rejected(self, tmp_path):
        journal = RunJournal(tmp_path)
        journal.write_header({"tool": "t", "seed": 1})
        journal.write_header({"tool": "t", "seed": 1})  # idempotent
        with pytest.raises(JournalError):
            journal.write_header({"tool": "t", "seed": 2})

    def test_reserved_keys_rejected(self, tmp_path):
        journal = RunJournal(tmp_path)
        with pytest.raises(JournalError):
            journal.append("header", {})
        with pytest.raises(JournalError):
            journal.append("", {})

    def test_checksum_is_canonical(self):
        assert checksum({"b": 1, "a": 2}) == checksum({"a": 2, "b": 1})
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# -- worker-death retry --------------------------------------------------
# Pool tasks must be top-level so they pickle.

def _double(task):
    return task * 2


def _die_once(task):
    """Kill the worker the first time; succeed after the marker exists."""
    marker, value = task
    if value == 0 and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("died")
        os._exit(1)
    return value * 2


def _always_die(task):
    os._exit(1)


def _raise(task):
    raise ValueError(f"task {task} is bad")


class TestMapWithRetries:
    def test_serial_path(self):
        seen = []
        results = map_with_retries(
            _double, [1, 2, 3], workers=1,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert results == [2, 4, 6]
        assert seen == [(0, 2), (1, 4), (2, 6)]

    def test_worker_death_is_retried(self, tmp_path):
        marker = str(tmp_path / "died-once")
        tasks = [(marker, value) for value in range(4)]
        results = map_with_retries(
            _die_once, tasks, workers=2, max_retries=2, backoff_base=0.01
        )
        assert results == [0, 2, 4, 6]
        assert os.path.exists(marker)

    def test_persistent_death_exhausts_budget(self):
        with pytest.raises(WorkerRetryExhausted):
            map_with_retries(
                _always_die, [1, 2], workers=2, max_retries=1, backoff_base=0.01
            )

    def test_task_exceptions_propagate_unretried(self):
        with pytest.raises(ValueError, match="task 2 is bad"):
            map_with_retries(_raise, [2], workers=2, max_retries=5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            map_with_retries(_double, [1], max_retries=-1)


# -- sweep journaling ----------------------------------------------------

def _sweep_engine():
    return LlmServingEngine(
        LlamaCostModel(LLAMA_3_1_8B, get_backend("gaudi2")),
        DecodeAttention.PAGED_OPT,
        max_decode_batch=8,
    )


def _sweep_requests():
    return fixed_length_requests(10, input_len=128, output_len=16)


def _poisoned_engine():
    raise AssertionError("factory must not run for journal-reused points")


class TestSweepJournal:
    RATES = [2.0, 400.0]

    def test_completed_points_are_reused(self, tmp_path):
        first = run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5, journal=tmp_path,
        )
        # Every point is journaled, so a re-run touches no factory at all.
        second = run_load_sweep(
            engine_factory=_poisoned_engine, request_factory=_poisoned_engine,
            rates=self.RATES, seed=5, journal=tmp_path,
        )
        assert first == second

    def test_journaled_matches_unjournaled(self, tmp_path):
        plain = run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5,
        )
        journaled = run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5, journal=tmp_path,
        )
        assert plain == journaled

    def test_partial_journal_runs_only_missing_points(self, tmp_path):
        full = run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5, journal=tmp_path / "full",
        )
        # Seed a second journal with only point 0, then complete it.
        partial = RunJournal(tmp_path / "partial")
        partial.write_header({
            "tool": "load_sweep", "rates": self.RATES, "seed": 5,
            "resilient": False,
        })
        partial.append("point-0000", full[0].to_dict())
        resumed = run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5, journal=partial,
        )
        assert resumed == full

    def test_config_mismatch_rejected(self, tmp_path):
        run_load_sweep(
            engine_factory=_sweep_engine, request_factory=_sweep_requests,
            rates=self.RATES, seed=5, journal=tmp_path,
        )
        with pytest.raises(JournalError):
            run_load_sweep(
                engine_factory=_sweep_engine, request_factory=_sweep_requests,
                rates=self.RATES, seed=6, journal=tmp_path,
            )


# -- reproduce / resume --------------------------------------------------

FIGURE_IDS = ["table2", "fig04"]


def _run_cli(args, tmp, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_TEST_DIE_AFTER_POINTS", None)
    env.pop("REPRO_WORKERS", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(tmp), env=env, capture_output=True, text=True, timeout=600,
    )


class TestReproduceResume:
    def test_reproduce_writes_reports_and_journal(self, tmp_path):
        result = reproduce(tmp_path / "run", fast=True, figure_ids=FIGURE_IDS)
        assert sorted(result.ran) == sorted(FIGURE_IDS)
        assert result.reused == []
        assert result.report_txt.exists()
        assert result.report_json.exists()
        payload = json.loads(result.report_json.read_text())
        assert sorted(payload["figures"]) == sorted(FIGURE_IDS)
        assert payload["config"]["fast"] is True

    def test_second_run_reuses_journal(self, tmp_path):
        reproduce(tmp_path / "run", fast=True, figure_ids=FIGURE_IDS)
        again = reproduce(tmp_path / "run", fast=True, figure_ids=FIGURE_IDS)
        assert again.ran == []
        assert sorted(again.reused) == sorted(FIGURE_IDS)

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            reproduce(tmp_path / "run", figure_ids=["fig99"])

    def test_resume_requires_header(self, tmp_path):
        with pytest.raises(JournalError):
            resume(tmp_path / "empty")

    def test_crash_then_resume_is_bit_identical(self, tmp_path):
        """Kill the run after 1 journaled point; resume must reproduce the
        uninterrupted run's report files byte for byte."""
        baseline = tmp_path / "baseline"
        crashed = tmp_path / "crashed"
        ids = [flag for fid in FIGURE_IDS for flag in ("--id", fid)]

        done = _run_cli(["reproduce", "--out", str(baseline), *ids], tmp_path)
        assert done.returncode == 0, done.stderr

        died = _run_cli(
            ["reproduce", "--out", str(crashed), *ids], tmp_path,
            extra_env={"REPRO_TEST_DIE_AFTER_POINTS": "1"},
        )
        assert died.returncode == DIE_EXIT_CODE, died.stderr
        # Crash left the journal with header + 1 point and no reports.
        header, points, _ = RunJournal(crashed).load()
        assert header is not None
        assert len(points) == 1
        assert not (crashed / "report.txt").exists()

        resumed = _run_cli(["resume", str(crashed)], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert "[journal]" in resumed.stdout

        for name in ("report.txt", "report.json"):
            assert (crashed / name).read_bytes() == (baseline / name).read_bytes()
