"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_TRACE = REPO_ROOT / "tests" / "obs" / "golden" / "v1_faulted_trace.jsonl"


class TestExperimentCommand:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "combined" in out

    def test_table2_small(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05"]) == 0
        assert "rho" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nonsense"])


class TestQueryCommand:
    def test_basic_query(self, capsys):
        code = main(
            [
                "query",
                "--query",
                "SELECT AVG(temperature) FROM R",
                "--scale",
                "0.04",
                "--steps",
                "6",
                "--scheduler",
                "all",
                "--evaluator",
                "independent",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot queries" in out
        assert "estimate=" in out

    def test_filtered_avg_falls_back(self, capsys):
        code = main(
            [
                "query",
                "--query",
                "SELECT AVG(temperature) FROM R WHERE temperature > 55",
                "--scale",
                "0.04",
                "--steps",
                "4",
            ]
        )
        assert code == 0
        assert "falling back" in capsys.readouterr().out

    def test_query_required(self):
        with pytest.raises(SystemExit):
            main(["query"])


class TestTraceCommands:
    def test_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--output",
                    path,
                    "--scale",
                    "0.04",
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        assert "recorded" in capsys.readouterr().out
        assert (
            main(
                [
                    "trace",
                    "replay",
                    "--input",
                    path,
                    "--query",
                    "SELECT AVG(temperature) FROM R",
                    "--delta",
                    "2",
                    "--epsilon",
                    "1.5",
                ]
            )
            == 0
        )
        assert "replayed 5 steps" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,header",
        [("summarize", "message attribution:"), ("critpath", "critical paths")],
    )
    def test_module_entry_point_analyzes_a_saved_trace(self, command, header):
        """``python -m repro trace ...`` runs as a separate process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        process = subprocess.run(
            [sys.executable, "-m", "repro", "trace", command,
             "--input", str(GOLDEN_TRACE)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert process.returncode == 0, process.stderr
        assert header in process.stdout
