"""Smoke test of the end-to-end benchmark at 1/20 scale (``pytest benchmarks/e2e``).

Every workload must print each declared metric with its unit, pass its
output checks, and give identical simulated results when run twice with
the same seed (the second time with a traced replay on top).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", "42", "--seconds", "1", "--scale", "0.05",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )
    return completed


def parse(completed):
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    detail = next(line for line in lines if line.startswith("detail: "))
    return lines, json.loads(lines[-1]), json.loads(detail[len("detail: "):])


def printed(lines, workload: str, declared: list) -> None:
    rows = {tuple(line.split()[:2]): line.split()[3]
            for line in lines if len(line.split()) >= 4}
    for entry in declared:
        assert rows.get((workload, entry["name"])) == entry["unit"], entry


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_metrics_checks_and_determinism(workload):
    lines, result, detail = parse(run(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, value["unit"]) for name, value in result["metrics"].items()] == [
        (entry["name"], entry["unit"]) for entry in SPEC["end_to_end"]]
    printed(lines, workload, SPEC["end_to_end"])

    traced_lines, traced, traced_detail = parse(run(workload, trace=1))
    assert traced["correct"]
    assert [(name, value["unit"]) for name, value in traced["metrics"].items()] == [
        (entry["name"], entry["unit"]) for entry in SPEC["per_layer"]]
    printed(traced_lines, workload, SPEC["per_layer"])
    assert traced_detail["sim"] == detail["sim"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
