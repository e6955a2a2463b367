"""Tests for the pluggable sweep execution backends (DESIGN.md §8).

The load-bearing guarantees:

* executors move arrays, never change them: serial and process backends
  produce bitwise-identical sweeps for both budget kinds and both
  engines, and across injected worker crashes;
* the fixed path's chunk layout is a function of the spec alone, so
  worker counts can never shift results — and specs that do not split
  keep their historical canonical dict (and cache entries) bit for bit;
* the block-level adaptive scheduler realises exactly the sequential
  reference semantics (:func:`repro.sweep.reference_cell_times`), no
  matter how its blocks were interleaved, stolen, or speculated;
* a persistent executor survives (and is reused across) many sweeps.
"""

import os

import numpy as np
import pytest

from repro.stats import BudgetPolicy
from repro.sweep import (
    SerialExecutor,
    SweepSpec,
    VirtualExecutor,
    ensure_executor,
    make_executor,
    reference_cell_times,
    resolve_workers,
    run_sweep,
)
from repro.sweep.executor import CRASH_ENV, ProcessExecutor
from repro.sweep import runner
from repro.sweep.runner import _execute_block


def _double(payload):
    return np.asarray(payload, dtype=np.float64) * 2.0


def _pid_task(payload):
    return np.asarray([float(os.getpid())])


def _boom(payload):
    raise ValueError("task exploded")


def small_spec(**overrides):
    base = dict(
        algorithm="nonuniform",
        distances=(8, 16),
        ks=(1, 4),
        trials=20,
        seed=42,
    )
    base.update(overrides)
    return SweepSpec(**base)


def adaptive(rel_ci=1e-9, min_trials=32, max_trials=256, **overrides):
    return small_spec(
        budget=BudgetPolicy.target_rel_ci(
            rel_ci, min_trials=min_trials, max_trials=max_trials
        ),
        **overrides,
    )


def assert_sweeps_equal(a, b):
    assert len(a.cells) == len(b.cells)
    for x, y in zip(a.cells, b.cells):
        assert (x.distance, x.k) == (y.distance, y.k)
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


class TestResolveWorkers:
    def test_integers_pass_through(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3

    def test_auto_matches_usable_cpus(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(-1) == resolve_workers("auto")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestMakeExecutor:
    def test_auto_picks_serial_for_low_worker_counts(self):
        for workers in (0, 1):
            with make_executor(workers=workers) as ex:
                assert isinstance(ex, SerialExecutor)

    def test_auto_picks_process_for_pools(self):
        with make_executor(workers=2) as ex:
            assert isinstance(ex, ProcessExecutor)
            assert ex.workers == 2

    def test_explicit_backends(self):
        with make_executor(workers=4, backend="serial") as ex:
            assert isinstance(ex, SerialExecutor)
        with make_executor(workers=1, backend="process") as ex:
            assert isinstance(ex, ProcessExecutor)
            assert ex.workers == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_executor(workers=2, backend="quantum")
        with pytest.raises(ValueError, match="unknown backend 'remote'"):
            make_executor(workers=2, backend="remote")

    def test_ensure_executor_reuses_and_never_closes(self):
        with make_executor(workers=0) as outer:
            with ensure_executor(outer) as inner:
                assert inner is outer
            # Still usable: ensure_executor must not close what it was
            # handed (the persistence contract).
            ticket = outer.submit(_double, np.ones(3))
            assert np.array_equal(
                outer.next_completed()[1], np.full(3, 2.0)
            )
            assert ticket == 0


class TestSerialExecutor:
    def test_lazy_fifo_execution(self):
        ex = SerialExecutor()
        t0 = ex.submit(_double, np.asarray([1.0]))
        t1 = ex.submit(_double, np.asarray([2.0]))
        assert ex.pending == 2
        ticket, result = ex.next_completed()
        assert ticket == t0 and result[0] == 2.0
        ticket, result = ex.next_completed()
        assert ticket == t1 and result[0] == 4.0
        with pytest.raises(RuntimeError):
            ex.next_completed()

    def test_uncollected_tasks_never_run(self):
        ran = []

        def recording(payload):
            ran.append(payload)
            return np.zeros(1)

        ex = SerialExecutor()
        ex.submit(recording, "speculative")
        assert ran == []  # lazy: submit alone must not execute


class TestVirtualExecutor:
    def test_models_greedy_list_scheduling(self):
        # Four unit-cost tasks on two virtual workers: finish times
        # 1, 1, 2, 2 and a makespan of 2 — classic greedy packing.
        ex = VirtualExecutor(2, cost_fn=lambda fn, payload, result: 1.0)
        for value in range(4):
            ex.submit(_double, np.asarray([float(value)]))
        finishes = []
        while ex.pending:
            ticket, result = ex.next_completed()
            finishes.append(ticket)
        assert ex.makespan == 2.0
        assert sorted(finishes) == [0, 1, 2, 3]

    def test_results_are_exact(self):
        ex = VirtualExecutor(3, cost_fn=lambda fn, payload, result: result.sum())
        ex.submit(_double, np.asarray([3.0]))
        _, result = ex.next_completed()
        assert result[0] == 6.0

    def test_negative_cost_rejected(self):
        ex = VirtualExecutor(1, cost_fn=lambda *a: -1.0)
        with pytest.raises(ValueError):
            ex.submit(_double, np.ones(1))


class TestProcessExecutor:
    def test_round_trip_1d_and_2d(self):
        # Fixed-path chunks return 2-D matrices, packs 1-D arrays; both
        # come back pickled with shape and bytes intact.
        payloads = [
            np.arange(400, dtype=np.float64),
            np.arange(600, dtype=np.float64).reshape(3, 200),
        ]
        with ProcessExecutor(2) as ex:
            tickets = {ex.submit(_double, p): p for p in payloads}
            for _ in payloads:
                ticket, result = ex.next_completed()
                expected = tickets.pop(ticket) * 2.0
                assert result.dtype == np.float64
                assert result.shape == expected.shape
                assert np.array_equal(result, expected)

    def test_task_exceptions_propagate(self):
        with ProcessExecutor(1) as ex:
            ex.submit(_boom, None)
            with pytest.raises(ValueError, match="task exploded"):
                ex.next_completed()
            # The executor survives a task failure.
            ex.submit(_double, np.ones(2))
            assert np.array_equal(ex.next_completed()[1], np.full(2, 2.0))

    def test_persistent_pool_reuses_workers(self):
        with ProcessExecutor(1) as ex:
            ex.submit(_pid_task, None)
            first = ex.next_completed()[1][0]
            ex.submit(_pid_task, None)
            second = ex.next_completed()[1][0]
        assert first == second  # same worker process served both tasks
        assert first != os.getpid()

    def test_crash_recovery_restarts_and_retries(self, tmp_path, monkeypatch):
        crash = tmp_path / "crash"
        crash.write_text("1")
        monkeypatch.setenv(CRASH_ENV, str(crash))
        with ProcessExecutor(1) as ex:
            ex.submit(_double, np.arange(300.0))
            _, result = ex.next_completed()
            assert np.array_equal(result, np.arange(300.0) * 2.0)
            assert ex.restarts == 1
        assert crash.read_text() == "0"

    def test_gives_up_after_max_restarts(self, tmp_path, monkeypatch):
        crash = tmp_path / "crash"
        crash.write_text("100")
        monkeypatch.setenv(CRASH_ENV, str(crash))
        with ProcessExecutor(1, max_restarts=2) as ex:
            ex.submit(_double, np.ones(4))
            with pytest.raises(RuntimeError, match="giving up"):
                ex.next_completed()

    def test_next_completed_without_tasks_rejected(self):
        with ProcessExecutor(1) as ex:
            with pytest.raises(RuntimeError):
                ex.next_completed()


class TestBackendDeterminism:
    """Serial == process, bitwise, for both paths and both engines."""

    def test_fixed_excursion(self):
        spec = small_spec()
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )

    def test_fixed_walker(self):
        spec = small_spec(algorithm="random_walk", horizon=500.0, ks=(2, 4))
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )

    def test_adaptive_excursion(self):
        spec = adaptive()
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=3),
        )

    def test_adaptive_walker(self):
        spec = adaptive(
            algorithm="random_walk", horizon=500.0, distances=(4, 8),
            ks=(2,), max_trials=64,
        )
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )

    def test_forced_process_backend_single_worker(self):
        spec = small_spec()
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=1, backend="process"),
        )

    def test_crash_mid_sweep_is_invisible(self, tmp_path, monkeypatch):
        spec = adaptive(max_trials=128)
        serial = run_sweep(spec, cache=False)
        crash = tmp_path / "crash"
        crash.write_text("2")
        monkeypatch.setenv(CRASH_ENV, str(crash))
        crashed = run_sweep(spec, cache=False, workers=2)
        assert crash.read_text() == "0"  # both injected crashes fired
        assert_sweeps_equal(serial, crashed)

    def test_crash_mid_fixed_sweep_is_invisible(self, tmp_path, monkeypatch):
        spec = small_spec()
        serial = run_sweep(spec, cache=False)
        crash = tmp_path / "crash"
        crash.write_text("1")
        monkeypatch.setenv(CRASH_ENV, str(crash))
        crashed = run_sweep(spec, cache=False, workers=2)
        assert_sweeps_equal(serial, crashed)

    def test_persistent_executor_across_sweeps(self):
        fixed, adapt = small_spec(), adaptive(max_trials=64)
        with make_executor(workers=2) as shared:
            first = run_sweep(fixed, cache=False, executor=shared)
            second = run_sweep(adapt, cache=False, executor=shared)
        assert_sweeps_equal(first, run_sweep(fixed, cache=False))
        assert_sweeps_equal(second, run_sweep(adapt, cache=False))


class TestDynamicWorldBackendDeterminism:
    """Serial == process, bitwise, for non-default world specs (E12)."""

    WORLD = {
        "n_targets": 2, "motion": "drift", "motion_rate": 0.1,
        "arrival": "geometric", "arrival_hazard": 0.005,
    }

    def dynamic(self, **overrides):
        base = dict(
            trials=10, horizon=1500.0, world=self.WORLD,
            distances=tuple(range(4, 15)), ks=(2,),
        )
        base.update(overrides)
        return small_spec(**base)

    def test_dynamic_excursion(self):
        spec = self.dynamic()
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )

    def test_dynamic_walker(self):
        spec = self.dynamic(algorithm="random_walk")
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )

    def test_dynamic_belief(self):
        spec = self.dynamic(algorithm="grid_belief")
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=3),
        )

    def test_dynamic_adaptive_budget(self):
        spec = self.dynamic(
            distances=(6, 10),
            budget=BudgetPolicy.target_rel_ci(
                1e-9, min_trials=32, max_trials=64
            ),
        )
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=2),
        )


class TestFixedChunking:
    MANY = tuple(range(4, 16))  # 12 distances: above the split threshold

    def test_small_specs_keep_historical_dict(self):
        # The chunk-layout marker must not leak into unsplit specs: their
        # canonical dict (hence hash and cache entries) is load-bearing.
        assert "fixed_chunking" not in small_spec().to_dict()

    def test_chunked_specs_carry_layout_marker(self):
        spec = small_spec(distances=self.MANY)
        assert spec.to_dict()["fixed_chunking"] == [8, 4]
        assert spec.spec_hash() != small_spec().spec_hash()

    def test_chunked_excursion_serial_matches_pooled(self):
        spec = small_spec(distances=self.MANY, trials=8)
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=4),
        )

    def test_chunked_walker_rows_independent_of_split(self):
        # Walker rows are per-world seeded, so however a group's rows
        # split into tasks, pooled runs reproduce the serial rows bitwise.
        spec = small_spec(
            algorithm="random_walk", horizon=400.0,
            distances=self.MANY, ks=(2,), trials=8,
        )
        serial = run_sweep(spec, cache=False)
        for workers in (2, 5):
            assert_sweeps_equal(
                serial, run_sweep(spec, cache=False, workers=workers)
            )

    def test_walker_row_split_leaves_results_unchanged(self, monkeypatch):
        # From one task per row to one task per group: the rows match.
        spec = small_spec(
            algorithm="random_walk", horizon=400.0,
            distances=self.MANY, ks=(1, 2), trials=8,
        )
        default = run_sweep(spec, cache=False)
        for row_tasks in (1, 5, len(spec.cells())):
            monkeypatch.setattr(runner, "ROW_TASKS", row_tasks)
            assert_sweeps_equal(default, run_sweep(spec, cache=False))

    def test_require_k_le_d_filters_before_chunking(self):
        spec = small_spec(
            distances=self.MANY, ks=(1, 32), require_k_le_d=True, trials=8
        )
        assert_sweeps_equal(
            run_sweep(spec, cache=False),
            run_sweep(spec, cache=False, workers=3),
        )


class TestBlockScheduler:
    def test_matches_reference_semantics_per_cell(self):
        spec = adaptive(rel_ci=0.15, max_trials=512)
        result = run_sweep(spec, cache=False, workers=3)
        for cell in result:
            reference = reference_cell_times(spec, cell.distance, cell.k)
            assert np.array_equal(cell.times, reference)

    def test_virtual_executor_reproduces_serial_results(self):
        spec = adaptive(max_trials=128)
        serial = run_sweep(spec, cache=False)
        virtual = VirtualExecutor(
            4, cost_fn=lambda fn, payload, result: float(result.size)
        )
        modelled = run_sweep(spec, cache=False, executor=virtual)
        assert_sweeps_equal(serial, modelled)
        total = sum(cell.trials for cell in serial)
        # Work conservation: the modelled makespan is bounded by the
        # serial total and by perfect speedup from below.
        assert virtual.makespan <= total
        assert virtual.makespan >= total / 4

    def test_speculation_never_changes_results(self):
        # One straggler cell + tiny sibling: with 4 workers the
        # scheduler speculates deep into the straggler's stream; the
        # result must still be the deterministic policy prefix.
        spec = adaptive(
            rel_ci=0.3, distances=(8,), ks=(1, 4), max_trials=2048
        )
        serial = run_sweep(spec, cache=False)
        pooled = run_sweep(spec, cache=False, workers=4)
        assert_sweeps_equal(serial, pooled)

    def test_block_tasks_are_pure(self):
        spec = adaptive()
        a = _execute_block((spec, 8, 1, 2))
        b = _execute_block((spec, 8, 1, 2))
        assert np.array_equal(a, b)
        assert a.size == 64  # third block of the capped schedule


class TestWalkerChunkingKeepsHash:
    def test_walker_specs_exempt_from_chunk_marker(self):
        # Walker rows chunk bitwise-identically (per-world seeds), so
        # their canonical dict — and their cache entries — must not move.
        spec = small_spec(
            algorithm="random_walk", horizon=400.0,
            distances=tuple(range(4, 16)), ks=(2,),
        )
        assert "fixed_chunking" not in spec.to_dict()


class TestSharedExecutorFailureIsolation:
    def test_failed_sweep_leaves_no_stale_tickets(self, tmp_path, monkeypatch):
        """A sweep dying mid-run must not poison a shared executor.

        The permanent crash storm exhausts max_restarts and the sweep
        raises; a later sweep on the *same* executor must run cleanly
        rather than collecting the dead sweep's tickets.
        """
        from repro.sweep.executor import ProcessExecutor

        crash = tmp_path / "crash"
        with ProcessExecutor(2, max_restarts=0) as shared:
            crash.write_text("100")
            monkeypatch.setenv(CRASH_ENV, str(crash))
            with pytest.raises(RuntimeError, match="giving up"):
                run_sweep(adaptive(max_trials=64), cache=False, executor=shared)
            monkeypatch.delenv(CRASH_ENV)
            crash.unlink()
            healthy = run_sweep(
                adaptive(max_trials=64), cache=False, executor=shared
            )
        assert_sweeps_equal(
            healthy, run_sweep(adaptive(max_trials=64), cache=False)
        )

    def test_failed_fixed_sweep_leaves_no_stale_tickets(self):
        """Same isolation on the fixed path, with an in-process failure."""
        from repro.sweep import SerialExecutor
        import repro.sweep.runner as runner_mod

        calls = {"n": 0}
        real = runner_mod._execute_chunk

        def exploding(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("injected chunk failure")
            return real(payload)

        with SerialExecutor() as shared:
            import unittest.mock as mock

            with mock.patch.object(
                runner_mod, "_execute_chunk", exploding
            ):
                with pytest.raises(ValueError, match="injected"):
                    run_sweep(small_spec(), cache=False, executor=shared)
            assert shared.pending == 0
            healthy = run_sweep(small_spec(), cache=False, executor=shared)
        assert_sweeps_equal(
            healthy, run_sweep(small_spec(), cache=False)
        )


class TestWallBudgetScheduling:
    def test_wall_cells_run_whole_cell_and_in_parallel(self):
        spec = small_spec(
            budget=BudgetPolicy.wall(0.05, min_trials=32, max_trials=128)
        )
        result = run_sweep(spec, cache=False, workers=2)
        for cell in result:
            assert 32 <= cell.trials <= 128
            # Whole blocks only: the schedule's boundaries.
            assert cell.trials in (32, 64, 128)

    def test_wall_budget_charges_only_own_cell_time(self, monkeypatch):
        """Each cell's wall clock excludes its siblings' simulation.

        With per-cell wall budgets far above one cell's cost but below
        the whole sweep's, every cell must still reach max_trials: the
        old block scheduler charged cells the whole sweep's elapsed
        time, stopping later cells at min_trials.
        """
        import repro.sweep.runner as runner_mod

        real = reference_cell_times
        seen = []

        def tracking(spec, distance, k, existing=None):
            seen.append((distance, k))
            return real(spec, distance, k, existing)

        monkeypatch.setattr(
            runner_mod, "reference_cell_times", tracking
        )
        spec = small_spec(
            budget=BudgetPolicy.wall(30.0, min_trials=32, max_trials=64)
        )
        result = run_sweep(spec, cache=False)
        # 30s per cell dwarfs this workload: every cell reaches its
        # trial ceiling no matter how long its siblings ran.
        assert all(cell.trials == 64 for cell in result)
        assert len(seen) == 4  # one whole-cell reference task per cell


class TestGiveUp:
    def test_pool_creation_failure_gives_up(self, monkeypatch):
        # A machine that cannot fork burns a restart per failed launch
        # and surfaces a RuntimeError instead of hanging the collector.
        ex = ProcessExecutor(1, max_restarts=0)

        def broken_pool():
            raise RuntimeError("pool creation failed")

        monkeypatch.setattr(ex, "_ensure_pool", broken_pool)
        try:
            ex.submit(_double, np.arange(64.0))
            ex.submit(_double, np.arange(64.0))
            with pytest.raises(RuntimeError, match="giving up"):
                ex.next_completed()
        finally:
            ex.close()
