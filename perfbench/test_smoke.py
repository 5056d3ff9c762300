"""Smoke tests of the benchmark at tiny size.

Run from the checkout root::

    python3 -m pytest perfbench -q

They check that every workload prints every named metric with its
unit, that the traced run's self times reconcile with its wall time,
that a deliberately corrupted output counts as a failed operation,
that ``sim_digest`` does not depend on the seed, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.common import (
    BENCH_SELF_LINE,
    END_TO_END,
    PER_LAYER,
    SELF_TIME_LINES,
)
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """Run the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@functools.lru_cache(maxsize=None)
def tiny(workload, trace=0, *extra):
    """One tiny run (seed 5 untraced, 6 traced): (result, sim_digest)."""
    code, lines = bench(
        "--workload", workload, "--seed", str(5 + trace), "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    )
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    (digest,) = [
        line.split()[1] for line in lines if line.startswith("sim_digest")
    ]
    return result, digest


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reconciles(workload):
    result, _ = tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == PER_LAYER
    lines = [*SELF_TIME_LINES.values(), BENCH_SELF_LINE, "trace.uncovered_s"]
    assert sum(metrics[line] for line in lines) == pytest.approx(
        metrics["trace.accounted_s"], rel=1e-6
    )
    assert metrics["trace.spans"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_a_failed_operation(workload):
    result, _ = tiny(workload, 0, "--corrupt")
    assert result["failed"] == 1
    assert not result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_digest_does_not_depend_on_the_seed(workload):
    assert tiny(workload)[1] == tiny(workload, 1)[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
