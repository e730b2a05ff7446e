"""The benchmark harness runs end to end on the current sources.

A short run of `perfbench/run.py` per workload, each in a subprocess: a
change that breaks the harness, or a workload's answers, fails here first.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_is_correct_and_complete(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert len(names) == 6
    assert sorted(last["metrics"]) == sorted(names)
