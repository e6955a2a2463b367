"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest sweepbench/selftest.py``
(about two and a half minutes: every workload runs once untraced and
once traced at minimal length).  The file name keeps these runs out of the
repository's default test collection.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from repro.sweep import (  # noqa: E402
    CellResult,
    SerialExecutor,
    SweepResult,
    block_trials,
    run_sweep,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def expected_metrics(kind: str):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_benchmark(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    printed = {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert printed == expected_metrics(kind)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name


def test_corrupted_result_is_a_failed_unit(tmp_path):
    workload = workloads.FixedGrid(seed=3, work_dir=str(tmp_path))
    workload.open_executor()
    tally = workloads.Tally()
    try:
        workloads.warm_up(workload, tally)
        assert tally.failed == 0 and workload.reference is not None

        def corrupting_sweep(spec, **kwargs):
            result = run_sweep(spec, **kwargs)
            if not result.from_cache:
                result.cells[0].times[0] += 1.0
            return result

        workload.sweep = corrupting_sweep
        workloads.measure(workload, 0.0, tally, min_units=1)
    finally:
        workload.close()
    assert tally.attempted == 2  # the warm-up unit and the corrupted one
    assert tally.failed == 1
    assert any("differs bitwise" in p for p in tally.problems)


@pytest.fixture(scope="module")
def precision_result(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("cache"))
    spec = workloads.precision_spec(3)
    return run_sweep(spec, executor=SerialExecutor(), cache_dir=directory)


def test_checks_accept_a_real_result(precision_result):
    assert workloads.check_cold(precision_result) == []


def with_times(result, index: int, times) -> SweepResult:
    """``result`` with cell ``index`` holding ``times`` instead."""
    cells = list(result.cells)
    cells[index] = CellResult(cells[index].distance, cells[index].k, times)
    return SweepResult(spec=result.spec, cells=cells)


def test_check_times_rejects_impossible_find_times(precision_result):
    cell = precision_result.cells[0]
    for bad in (cell.distance - 1, math.inf):
        times = cell.times.copy()
        times[1] = bad
        assert workloads.check_times(with_times(precision_result, 0, times))


def test_check_budget_rejects_a_cell_cut_before_its_stop(precision_result):
    # A cell stops at the first block boundary that meets its target, so
    # dropping its last block leaves it short of the target.
    times = precision_result.cells[-1].times
    blocks, total = 0, 0
    while total < times.size:
        total += block_trials(blocks)
        blocks += 1
    cut = times[: total - block_trials(blocks - 1)]
    assert workloads.check_budget(with_times(precision_result, -1, cut))


def test_check_rerun_requires_from_cache(precision_result):
    assert workloads.check_rerun(precision_result, precision_result) == [
        "rerun did not report from_cache"
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = run_benchmark(
        str(tmp_path), "--workload", "fixed-grid", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
