"""Tests for adaptive precision-driven sweep execution.

The load-bearing guarantees:

* ``fixed(n)`` budgets are *canonicalised away*: same spec, same hash,
  same cache entry, bitwise identical results as today's runner;
* adaptive cells consume deterministic block streams — results are
  independent of caching, worker count, and how allocation was split
  across runs (cache top-up appends blocks, bitwise);
* the v2 block store is keyed by data identity and shares cells across
  grids and precision targets; v1 entries stay readable (and are still
  what fixed sweeps write).
"""

import json
import math
import os

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec
from repro.stats import BudgetPolicy
from repro.sweep import (
    SweepSpec,
    block_store_path,
    block_trials,
    cache_path,
    completed_trials,
    load_blocks,
    run_sweep,
    save_blocks,
    whole_blocks,
)


def _npz_entries(directory) -> int:
    """The number of ``.npz`` files in a directory."""
    return sum(1 for name in os.listdir(directory) if name.endswith(".npz"))


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


def adaptive(rel_ci=1e-9, min_trials=32, max_trials=64, **overrides):
    return small_spec(
        budget=BudgetPolicy.target_rel_ci(
            rel_ci, min_trials=min_trials, max_trials=max_trials
        ),
        **overrides,
    )


class TestBlockSchedule:
    def test_capped_doubling_schedule(self):
        # Doubling up to the cap, then flat: heavy cells decompose into
        # many equal blocks the executor can run concurrently.
        assert [block_trials(b) for b in range(7)] == [
            32, 32, 64, 128, 128, 128, 128,
        ]
        assert [completed_trials(b) for b in range(8)] == [
            0, 32, 64, 128, 256, 384, 512, 640,
        ]

    def test_whole_blocks_inverts_cumulative(self):
        for blocks in range(10):
            assert whole_blocks(completed_trials(blocks)) == blocks
        assert whole_blocks(33) == 1  # ragged tails truncate down
        assert whole_blocks(100) == 2
        assert whole_blocks(300) == 4
        assert whole_blocks(0) == 0


class TestFixedPolicyParity:
    def test_fixed_budget_is_canonicalised_to_plain_spec(self):
        plain = small_spec()
        fixed = small_spec(trials=5, budget=BudgetPolicy.fixed(20))
        assert fixed.budget is None
        assert fixed.trials == 20
        assert fixed == plain
        assert fixed.spec_hash() == plain.spec_hash()
        assert fixed.to_dict() == plain.to_dict()

    def test_fixed_budget_results_bitwise_identical(self):
        plain = run_sweep(small_spec(), cache=False)
        fixed = run_sweep(
            small_spec(budget=BudgetPolicy.fixed(20)), cache=False
        )
        for a, b in zip(plain.cells, fixed.cells):
            assert (a.distance, a.k) == (b.distance, b.k)
            assert np.array_equal(a.times, b.times)

    def test_fixed_budget_shares_cache_entry(self, tmp_path):
        first = run_sweep(small_spec(), cache_dir=str(tmp_path))
        assert not first.from_cache
        second = run_sweep(
            small_spec(budget=BudgetPolicy.fixed(20)), cache_dir=str(tmp_path)
        )
        assert second.from_cache
        for a, b in zip(first.cells, second.cells):
            assert np.array_equal(a.times, b.times)
        assert _npz_entries(tmp_path) == 1

    def test_budget_key_absent_from_plain_spec_dict(self):
        # Pre-adaptive cache entries must keep hitting: the canonical
        # dict of a budget-less spec is exactly the PR-3-era dict.
        assert "budget" not in small_spec().to_dict()
        assert "budget" in adaptive().to_dict()


class TestSpecBudget:
    def test_adaptive_budget_changes_hash(self):
        assert adaptive().spec_hash() != small_spec().spec_hash()
        assert (
            adaptive(rel_ci=0.1).spec_hash()
            != adaptive(rel_ci=0.2).spec_hash()
        )

    def test_budget_accepts_mapping(self):
        spec = small_spec(
            budget={"kind": "target_rel_ci", "rel_ci": 0.1,
                    "min_trials": 8, "max_trials": 16}
        )
        assert spec.budget == BudgetPolicy.target_rel_ci(
            0.1, min_trials=8, max_trials=16
        )
        with pytest.raises(TypeError):
            small_spec(budget="lots")

    def test_dict_roundtrip_with_budget(self):
        spec = adaptive(rel_ci=0.07, max_trials=128)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_data_hash_ignores_allocation_knobs(self):
        base = adaptive()
        assert base.data_hash() == adaptive(rel_ci=0.5).data_hash()
        assert base.data_hash() == adaptive(max_trials=4096).data_hash()
        assert base.data_hash() == small_spec().data_hash()
        assert base.data_hash() == adaptive(trials=7).data_hash()
        assert base.data_hash() == adaptive(distances=(8, 32)).data_hash()
        assert base.data_hash() == adaptive(ks=(2,)).data_hash()

    def test_data_hash_tracks_stream_identity(self):
        base = adaptive()
        assert base.data_hash() != adaptive(seed=43).data_hash()
        assert base.data_hash() != adaptive(placement="corner").data_hash()
        assert base.data_hash() != adaptive(horizon=1e5).data_hash()
        assert (
            base.data_hash()
            != adaptive(
                scenario=ScenarioSpec(crash_hazard=0.01), horizon=1e5
            ).data_hash()
        )
        assert (
            base.data_hash()
            != adaptive(algorithm="uniform").data_hash()
        )


class TestAdaptiveExecution:
    def test_stops_at_max_trials_boundary(self):
        result = run_sweep(adaptive(max_trials=64), cache=False)
        assert all(cell.trials == 64 for cell in result)
        assert not result.from_cache

    def test_easy_target_stops_at_min_boundary(self):
        result = run_sweep(
            adaptive(rel_ci=1e6, min_trials=32, max_trials=4096), cache=False
        )
        assert all(cell.trials == 32 for cell in result)

    def test_precision_target_is_reached(self):
        result = run_sweep(
            adaptive(rel_ci=0.2, min_trials=32, max_trials=4096), cache=False
        )
        for cell in result:
            assert cell.summary().rel_ci <= 0.2
            assert cell.trials < 4096

    def test_trials_vary_per_cell(self):
        # Same grid, one precision target: noisy cells get more trials.
        result = run_sweep(
            adaptive(rel_ci=0.08, min_trials=32, max_trials=2048),
            cache=False,
        )
        assert len({cell.trials for cell in result}) >= 1
        assert result.total_trials == sum(c.trials for c in result)

    def test_serial_and_pooled_runs_identical(self):
        spec = adaptive(max_trials=64)
        serial = run_sweep(spec, cache=False)
        pooled = run_sweep(spec, workers=2, cache=False)
        for a, b in zip(serial.cells, pooled.cells):
            assert (a.distance, a.k) == (b.distance, b.k)
            assert np.array_equal(a.times, b.times)

    def test_walker_adaptive_needs_horizon(self):
        with pytest.raises(ValueError):
            run_sweep(
                adaptive(algorithm="random_walk"), cache=False
            )
        result = run_sweep(
            adaptive(
                algorithm="random_walk", distances=(4,), ks=(2,),
                max_trials=32, horizon=500.0,
            ),
            cache=False,
        )
        (cell,) = list(result)
        assert cell.trials == 32

    def test_scenario_adaptive_runs(self):
        result = run_sweep(
            adaptive(
                scenario=ScenarioSpec(crash_hazard=0.01),
                horizon=1e5, max_trials=32,
            ),
            cache=False,
        )
        assert all(cell.trials == 32 for cell in result)


class TestBlockStoreCache:
    def test_top_up_reuses_cached_blocks(self, tmp_path):
        coarse = adaptive(max_trials=64)
        fine = adaptive(max_trials=256)
        first = run_sweep(coarse, cache_dir=str(tmp_path))
        assert all(c.trials == 64 for c in first)
        events = []
        second = run_sweep(
            fine, cache_dir=str(tmp_path), progress=events.append
        )
        assert all(c.trials == 256 for c in second)
        assert not second.from_cache
        # Blocks are append-only: the first 64 trials are reused bitwise.
        for a, b in zip(first.cells, second.cells):
            assert np.array_equal(a.times, b.times[:64])
        assert all(e.new_trials == 192 for e in events)
        assert all(e.source == "topped-up" for e in events)
        # One shared block store, not one file per policy.
        assert _npz_entries(tmp_path) == 1

    def test_top_up_equals_fresh_run(self, tmp_path):
        run_sweep(adaptive(max_trials=64), cache_dir=str(tmp_path))
        topped = run_sweep(adaptive(max_trials=256), cache_dir=str(tmp_path))
        fresh = run_sweep(adaptive(max_trials=256), cache=False)
        for a, b in zip(topped.cells, fresh.cells):
            assert np.array_equal(a.times, b.times)

    def test_satisfied_rerun_is_pure_cache_hit(self, tmp_path):
        spec = adaptive(max_trials=64)
        run_sweep(spec, cache_dir=str(tmp_path))
        events = []
        again = run_sweep(
            spec, cache_dir=str(tmp_path), progress=events.append
        )
        assert again.from_cache
        assert all(e.new_trials == 0 and e.source == "cache" for e in events)

    def test_cells_shared_across_grids(self, tmp_path):
        run_sweep(
            adaptive(distances=(8,), max_trials=64), cache_dir=str(tmp_path)
        )
        events = []
        wider = run_sweep(
            adaptive(distances=(8, 16), max_trials=64),
            cache_dir=str(tmp_path),
            progress=events.append,
        )
        by_cell = {(e.distance, e.k): e for e in events}
        assert by_cell[(8, 1)].new_trials == 0
        assert by_cell[(8, 4)].new_trials == 0
        assert by_cell[(16, 1)].new_trials == 64
        assert not wider.from_cache

    def test_foreign_store_is_ignored(self, tmp_path):
        spec = adaptive(max_trials=32)
        other = adaptive(max_trials=32, seed=7)
        path = block_store_path(spec, str(tmp_path))
        assert path != block_store_path(other, str(tmp_path))
        run_sweep(spec, cache_dir=str(tmp_path))
        # A store whose data identity mismatches the spec loads empty.
        assert load_blocks(other, path) == {}

    def test_corrupt_store_falls_back_to_recompute(self, tmp_path):
        spec = adaptive(max_trials=32)
        path = block_store_path(spec, str(tmp_path))
        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not an npz")
        result = run_sweep(spec, cache_dir=str(tmp_path))
        assert not result.from_cache
        assert all(c.trials == 32 for c in result)

    def test_ragged_cached_cell_truncates_to_block_boundary(self, tmp_path):
        spec = adaptive(distances=(8,), ks=(1,), max_trials=64)
        path = block_store_path(spec, str(tmp_path))
        honest = run_sweep(spec, cache=False)
        # Hand-write a store holding a 40-trial cell: 32 valid + 8 ragged.
        ragged = np.concatenate(
            [honest.cell(8, 1).times[:32], np.full(8, 1234.5)]
        )
        assert save_blocks(spec, path, {(8, 1): ragged})
        result = run_sweep(spec, cache_dir=str(tmp_path))
        # The ragged tail is discarded, block 1 re-simulated: bitwise
        # equal to the uncached run.
        assert np.array_equal(result.cell(8, 1).times, honest.cell(8, 1).times)

    def test_concurrent_writer_cells_survive(self, tmp_path, monkeypatch):
        """The pre-save re-read keeps a racing sweep's cells.

        Two adaptive sweeps over disjoint grids share one block store
        (same data identity).  If another process finishes while this
        one simulates, its cells must survive the read-modify-write.
        """
        import repro.sweep.runner as runner_mod

        mine = adaptive(distances=(8,), max_trials=32)
        racer = adaptive(distances=(16,), max_trials=32)
        real = runner_mod._execute_pack
        state = {"raced": False}

        def racing(payload):
            if not state["raced"]:
                state["raced"] = True
                run_sweep(racer, cache_dir=str(tmp_path))
            return real(payload)

        monkeypatch.setattr(runner_mod, "_execute_pack", racing)
        run_sweep(mine, cache_dir=str(tmp_path))
        store = load_blocks(mine, block_store_path(mine, str(tmp_path)))
        assert set(store) == {(8, 1), (8, 4), (16, 1), (16, 4)}

    def test_no_cache_writes_nothing(self, tmp_path):
        run_sweep(adaptive(max_trials=32), cache=False, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []


class TestV1Compatibility:
    def test_hand_written_v1_entry_still_hits(self, tmp_path):
        """A cache entry in the original (pre-block-store) npz layout —
        a ``times`` matrix plus spec/cells metadata, no ``format`` marker
        — must keep serving fixed sweeps byte for byte."""
        spec = small_spec()
        computed = run_sweep(spec, cache=False)
        path = cache_path(spec, str(tmp_path))
        os.makedirs(tmp_path, exist_ok=True)
        meta = {
            "spec": spec.to_dict(),
            "cells": [[c.distance, c.k] for c in computed.cells],
        }
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                meta=np.asarray(json.dumps(meta)),
                times=np.stack([c.times for c in computed.cells]),
            )
        loaded = run_sweep(spec, cache_dir=str(tmp_path))
        assert loaded.from_cache
        for a, b in zip(computed.cells, loaded.cells):
            assert np.array_equal(a.times, b.times)

    def test_v1_entry_is_not_mistaken_for_a_block_store(self, tmp_path):
        spec = adaptive(max_trials=32)
        path = block_store_path(spec, str(tmp_path))
        os.makedirs(tmp_path, exist_ok=True)
        meta = {"spec": spec.to_dict(), "cells": []}
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                meta=np.asarray(json.dumps(meta)),
                times=np.zeros((0, 2)),
            )
        assert load_blocks(spec, path) == {}
        result = run_sweep(spec, cache_dir=str(tmp_path))
        assert all(c.trials == 32 for c in result)

    def test_block_store_roundtrip(self, tmp_path):
        spec = adaptive(max_trials=64)
        path = block_store_path(spec, str(tmp_path))
        blocks = {
            (8, 1): np.arange(32, dtype=np.float64),
            (16, 4): np.arange(64, dtype=np.float64),
        }
        assert save_blocks(spec, path, blocks)
        loaded = load_blocks(spec, path)
        assert set(loaded) == set(blocks)
        for key in blocks:
            assert np.array_equal(loaded[key], blocks[key])


class TestProgressEvents:
    def test_fixed_path_reports_cells(self, tmp_path):
        events = []
        run_sweep(
            small_spec(), cache_dir=str(tmp_path), progress=events.append
        )
        assert len(events) == 4
        assert all(e.source == "computed" for e in events)
        assert all(e.new_trials == e.trials == 20 for e in events)
        cached_events = []
        run_sweep(
            small_spec(), cache_dir=str(tmp_path),
            progress=cached_events.append,
        )
        assert all(e.source == "cache" for e in cached_events)
        assert all(e.new_trials == 0 for e in cached_events)

    def test_event_carries_precision_fields(self):
        events = []
        run_sweep(adaptive(max_trials=32), cache=False, progress=events.append)
        for event in events:
            assert event.trials == 32
            assert math.isfinite(event.ci_halfwidth)
            assert math.isfinite(event.rel_ci)


class TestWallPolicy:
    def test_wall_budget_allocates_and_terminates(self):
        spec = small_spec(
            distances=(8,), ks=(1,),
            budget=BudgetPolicy.wall(0.05, min_trials=32, max_trials=128),
        )
        result = run_sweep(spec, cache=False)
        (cell,) = list(result)
        assert 32 <= cell.trials <= 128
        assert cell.trials in (32, 64, 128)

    def test_wall_budget_hash_distinct(self):
        a = small_spec(budget=BudgetPolicy.wall(1.0))
        b = small_spec(budget=BudgetPolicy.wall(2.0))
        assert a.spec_hash() != b.spec_hash()
        # ...but the block streams are shared.
        assert a.data_hash() == b.data_hash()
