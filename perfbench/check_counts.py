"""Self-checks of the benchmark, run explicitly (the name keeps them out of
the package's own test collection):

    python3 -m pytest -q perfbench/check_counts.py

- Two traced runs with the same seed give identical per-layer counts, and
  so do the rounds within one traced run.
- A run with a second seed passes every output check.
- Without the package source the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info.removeprefix("bench-info ")), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # --seconds 1: one round of the operations per run
    runs = [result_of(bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    (info_a, result_a), (info_b, result_b) = runs
    assert result_a["correct"] and result_b["correct"]
    assert info_a["trace_problems"] == 0
    assert info_a["counts_per_round"] == info_b["counts_per_round"]
    counts = {name: m["value"] for name, m in result_a["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert counts == {name: m["value"] for name, m in result_b["metrics"].items()
                      if m["unit"] in COUNT_UNITS}
    assert any(counts.values())
    assert set(result_a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_rounds_of_a_traced_run_agree():
    # the run itself fails when two rounds of the same operations count differently
    info, result = result_of(bench("--workload", "montecarlo", "--seed", "11", "--seconds", "8",
                                   "--trace", "1"))
    assert info["rounds"] >= 2
    assert info["trace_problems"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    info, result = result_of(bench("--workload", workload, "--seed", "29", "--seconds", "2"))
    assert result["correct"], info
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source():
    bare = ROOT / ".bench_build" / "perfbench" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
