"""Benchmark: block-level work-stealing executor vs the per-cell pool.

The PR-5 executor claim: on the quick adaptive uniform grid's deep-``D``
slice — ``D in {16, 32, 64} x k in {1, 2}``, ``A_uniform(eps=0.5)`` at
``target_rel_ci(0.05)`` — scheduling *blocks* with work stealing beats
the implementation it replaced (one whole cell per pool task, uncapped
doubling blocks) by **>= 2x wall clock with 4 workers**, because the
``(64, 1)`` straggler stops monopolising one worker with a sequential
512-trial stream: its (independent, block-seeded) blocks pipeline
across the pool and the capped schedule stops it at 384 trials.

Wall-clock on shared CI boxes is noisy and needs 4 real cores, so the
pinned assertion runs on a **deterministic scheduling model**: both
schedulers execute against :class:`repro.sweep.VirtualExecutor`, a
4-worker virtual clock whose task costs are the simulated time mass of
each task's result (engine work is proportional to simulated time, so
the model tracks real wall clock).  The model's decisions and completion
order are exactly a greedy pool's, it is bitwise reproducible on any
machine, and the measured ratio (~2.2x at this seed) regresses loudly.
A real-pool wall-clock guard runs wherever >= 4 CPUs exist (CI runners
qualify) with a CI-noise-tolerant threshold.

The other halves of the acceptance criterion ride along: serial,
process-pool, and virtual runs stay bitwise identical, and v2
block-store top-ups keep working through the executor path.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.sim.events import simulate_find_times_block
from repro.stats import BudgetPolicy, FindTimeAccumulator
from repro.sweep import SweepSpec, VirtualExecutor, build_algorithm, run_sweep
from repro.sweep.runner import _cell_world

DISTANCES = (16, 32, 64)
KS = (1, 2)
TARGET_REL_CI = 0.05
SEED = 20120716
WORKERS = 4


def _spec(max_trials=8192, budget=None, **overrides):
    if budget is None:
        budget = BudgetPolicy.target_rel_ci(
            TARGET_REL_CI, min_trials=32, max_trials=max_trials
        )
    base = dict(
        algorithm="uniform",
        params={"eps": 0.5},
        distances=DISTANCES,
        ks=KS,
        trials=60,
        placement="offaxis",
        seed=SEED,
        budget=budget,
    )
    base.update(overrides)
    return SweepSpec(**base)


def _mass(times: np.ndarray) -> float:
    """Simulated time mass — the model's engine-cost proxy."""
    return float(times[np.isfinite(times)].sum())


def _cost_fn(fn, payload, result):
    return _mass(result)


# ----------------------------------------------------------------------
# The replaced implementation, verbatim semantics: one cell = one pool
# task, blocks growing by pure doubling (the v1 schedule), consumed
# sequentially inside the task.
# ----------------------------------------------------------------------

def _v1_block_trials(block: int) -> int:
    return 32 if block == 0 else 32 << (block - 1)


def _v1_cell_task(payload) -> np.ndarray:
    spec, distance, k = payload
    policy = spec.budget
    strategy = build_algorithm(spec.algorithm, k, spec.param_dict())
    world = _cell_world(spec, distance, k)
    times = np.empty(0, dtype=np.float64)
    acc = FindTimeAccumulator(
        horizon=spec.horizon, confidence=policy.confidence
    )
    blocks = 0
    while not policy.satisfied(times.size, acc.summary(), 0.0):
        fresh = simulate_find_times_block(
            strategy, world, k, _v1_block_trials(blocks), spec.seed,
            distance=distance, block=blocks,
            horizon=spec.horizon, scenario=spec.scenario,
        )
        times = np.concatenate([times, fresh])
        acc.update(fresh)
        blocks += 1
    return times


def test_block_executor_beats_per_cell_pool_in_the_model(bench_info):
    spec = _spec()
    serial = run_sweep(spec, cache=False)

    # Replaced implementation: whole-cell tasks, grid order, greedy
    # 4-worker pool — submitting everything up front against the virtual
    # clock reproduces Pool.imap's list scheduling exactly.
    baseline = VirtualExecutor(WORKERS, cost_fn=_cost_fn)
    for cell in serial:
        baseline.submit(_v1_cell_task, (spec, cell.distance, cell.k))

    # This PR: the same sweep through the block-level scheduler, same
    # virtual 4-worker clock, same cost model.
    executor = VirtualExecutor(WORKERS, cost_fn=_cost_fn)
    modelled = run_sweep(spec, cache=False, executor=executor)
    for a, b in zip(serial.cells, modelled.cells):
        assert (a.distance, a.k) == (b.distance, b.k)
        assert np.array_equal(a.times, b.times)

    speedup = baseline.makespan / executor.makespan
    bench_info.update(
        backend="virtual",
        workers=WORKERS,
        trials=serial.total_trials,
        baseline_makespan=baseline.makespan,
        executor_makespan=executor.makespan,
        model_speedup=speedup,
    )
    print(
        f"\nquick adaptive uniform grid (D={DISTANCES} x k={KS}), "
        f"{WORKERS} virtual workers: per-cell pool makespan "
        f"{baseline.makespan / 1e6:.1f}M vs block executor "
        f"{executor.makespan / 1e6:.1f}M -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"block-level executor modelled only {speedup:.2f}x over the "
        f"per-cell pool; the acceptance pin is 2x"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"wall-clock comparison needs >= {WORKERS} CPUs",
)
def test_block_executor_beats_per_cell_pool_wall_clock(bench_info):
    spec = _spec()
    tasks = [(spec, cell.distance, cell.k) for cell in spec.cells()]

    started = time.perf_counter()
    with multiprocessing.Pool(WORKERS) as pool:
        baseline_cells = list(pool.imap(_v1_cell_task, tasks))
    baseline_wall = time.perf_counter() - started

    started = time.perf_counter()
    result = run_sweep(spec, cache=False, workers=WORKERS)
    executor_wall = time.perf_counter() - started

    assert len(baseline_cells) == len(result.cells)
    speedup = baseline_wall / executor_wall
    bench_info.update(
        backend="process",
        workers=WORKERS,
        trials=result.total_trials,
        wall_seconds=executor_wall,
        baseline_wall_seconds=baseline_wall,
        wall_speedup=speedup,
    )
    print(
        f"\nwall clock, {WORKERS} workers: per-cell pool "
        f"{baseline_wall:.2f}s vs block executor {executor_wall:.2f}s "
        f"-> {speedup:.2f}x"
    )
    # The model pins 2x; real pools add spawn/IPC overhead and CI boxes
    # add noise, so the wall-clock guard is deliberately looser.
    assert speedup >= 1.4


def test_executor_path_preserves_block_store_top_ups(tmp_path):
    coarse = _spec(
        budget=BudgetPolicy.target_rel_ci(
            0.10, min_trials=32, max_trials=2048
        )
    )
    fine = _spec(
        budget=BudgetPolicy.target_rel_ci(
            TARGET_REL_CI, min_trials=32, max_trials=2048
        )
    )
    first = run_sweep(coarse, cache_dir=str(tmp_path))
    topped = run_sweep(fine, cache_dir=str(tmp_path), workers=2)
    fresh = run_sweep(fine, cache=False)
    for a, b in zip(topped.cells, fresh.cells):
        assert np.array_equal(a.times, b.times)
    for a, b in zip(first.cells, topped.cells):
        assert np.array_equal(a.times, b.times[: a.trials])


def test_bench_executor_sweep_cold(once, bench_info, tmp_path):
    result = once(
        run_sweep, _spec(), cache_dir=str(tmp_path), workers=2
    )
    assert not result.from_cache
    bench_info.update(
        backend="process", workers=2, trials=result.total_trials
    )
