"""Smoke test of the benchmark: every workload at toy size emits every declared metric.

Runs ``perfbench/run.py --toy`` from the repository root, which shrinks the
synthetic inputs to a few thousand rows and keeps the shipped Iris/Wine
files as they are.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check_result(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, _ = run_bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    assert result["metrics"]["wall_s"]["value"] > 0
    assert 0 < result["metrics"]["ari"]["value"] <= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_emitted_and_fingerprint_stable(workload):
    first, first_lines = run_bench(workload, 1)
    second, second_lines = run_bench(workload, 1)
    check_result(first, SPEC["per_layer"])
    check_result(second, SPEC["per_layer"])

    def digest(lines):
        found = [line.split("trace_sha256=")[1].split()[0]
                 for line in lines if "trace_sha256=" in line]
        assert len(found) == 1
        return found[0]

    assert digest(first_lines) == digest(second_lines)
    assert first["metrics"]["models.evaluate_ball.calls"]["value"] > 0
