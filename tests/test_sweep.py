"""Tests for the sweep subsystem (repro.sweep): specs, cache, runner."""

import math
import os
import time

import numpy as np
import pytest

from repro.algorithms import NonUniformSearch, UniformSearch
from repro.scenarios import ScenarioSpec
from repro.sim.events import simulate_find_times_batch
from repro.sim.rng import spawn_seeds
from repro.sim.world import place_treasure
from repro.sweep import (
    CellResult,
    SweepSpec,
    build_algorithm,
    cache_path,
    load_result,
    run_sweep,
    save_result,
)


def _npz_entries(directory) -> int:
    """Cache entries in a directory (ignoring manifest sidecars)."""
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


class TestSweepSpec:
    def test_grid_cells_in_k_major_order(self):
        spec = small_spec()
        cells = [(c.distance, c.k) for c in spec.cells()]
        assert cells == [(8, 1), (16, 1), (8, 4), (16, 4)]

    def test_require_k_le_d_drops_cells_and_groups(self):
        spec = small_spec(distances=(2, 16), ks=(1, 4, 32), require_k_le_d=True)
        assert [(c.distance, c.k) for c in spec.cells()] == [
            (2, 1), (16, 1), (16, 4),
        ]
        assert [g.k for g in spec.groups()] == [1, 4]

    def test_params_normalised_for_hashing(self):
        a = small_spec(algorithm="uniform", params={"eps": 0.5})
        b = small_spec(algorithm="uniform", params=(("eps", 0.5),))
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    @pytest.mark.parametrize(
        "override",
        [
            {"trials": 21},
            {"seed": 43},
            {"placement": "corner"},
            {"horizon": 100.0},
            {"distances": (8, 32)},
            {"ks": (1, 2)},
            {"require_k_le_d": True},
            {"scenario": ScenarioSpec(crash_hazard=0.01)},
            {"scenario": ScenarioSpec(speed_spread=1.0)},
            {"scenario": ScenarioSpec(start_stagger=5.0)},
            {"scenario": ScenarioSpec(detection_prob=0.9)},
        ],
    )
    def test_hash_sensitive_to_every_knob(self, override):
        assert small_spec().spec_hash() != small_spec(**override).spec_hash()

    def test_distinct_scenarios_hash_distinctly(self):
        a = small_spec(scenario=ScenarioSpec(crash_hazard=0.01))
        b = small_spec(scenario=ScenarioSpec(crash_hazard=0.02))
        assert a.spec_hash() != b.spec_hash()

    def test_default_scenario_is_canonicalised_to_none(self):
        # "No scenario" and "explicitly unperturbed" are the same sweep:
        # identical spec, identical hash, identical cache entry.
        plain = small_spec()
        explicit = small_spec(scenario=ScenarioSpec())
        assert explicit.scenario is None
        assert plain == explicit
        assert plain.spec_hash() == explicit.spec_hash()

    def test_scenario_accepts_mapping(self):
        spec = small_spec(scenario={"crash_hazard": 0.05})
        assert spec.scenario == ScenarioSpec(crash_hazard=0.05)
        with pytest.raises(TypeError):
            small_spec(scenario="crashy")

    def test_dict_roundtrip(self):
        spec = small_spec(
            algorithm="uniform", params={"eps": 0.3}, horizon=500.0
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_dict_roundtrip_with_scenario(self):
        spec = small_spec(
            scenario=ScenarioSpec(crash_hazard=0.01, speed_spread=2.0)
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(distances=())
        with pytest.raises(ValueError):
            small_spec(ks=(0,))
        with pytest.raises(ValueError):
            small_spec(trials=0)
        # Results and journals are keyed by cell, so a repeated axis
        # value would name one cell twice.
        with pytest.raises(ValueError, match="distances"):
            small_spec(distances=(8, 16, 8))
        with pytest.raises(ValueError, match="ks"):
            small_spec(ks=(1, 1))
        with pytest.raises(TypeError):
            small_spec(seed=np.random.SeedSequence(0))


class TestBuildAlgorithm:
    def test_nonuniform_receives_true_k(self):
        algorithm = build_algorithm("nonuniform", 8, {})
        assert isinstance(algorithm, NonUniformSearch)
        assert algorithm.k == 8.0

    def test_uniform_takes_eps_param(self):
        algorithm = build_algorithm("uniform", 8, {"eps": 0.25})
        assert isinstance(algorithm, UniformSearch)
        assert algorithm.eps == 0.25

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_algorithm("definitely-not-registered", 1, {})


class TestRunSweep:
    def test_matches_direct_batch_call(self):
        spec = small_spec(ks=(4,))
        result = run_sweep(spec, cache=False)
        (group,) = spec.groups()
        (group_seed,) = spawn_seeds(spec.seed, 1)
        children = spawn_seeds(group_seed, 1 + len(group.distances))
        worlds = [
            place_treasure(d, spec.placement, seed=s)
            for d, s in zip(group.distances, children[1:])
        ]
        direct = simulate_find_times_batch(
            NonUniformSearch(k=4), worlds, 4, spec.trials, children[0]
        )
        for row, distance in zip(direct, group.distances):
            assert np.array_equal(result.cell(distance, 4).times, row)

    def test_cell_lookup_raises_off_grid(self):
        result = run_sweep(small_spec(), cache=False)
        with pytest.raises(KeyError):
            result.cell(999, 1)

    def test_workers_match_serial(self):
        spec = small_spec()
        serial = run_sweep(spec, cache=False)
        pooled = run_sweep(spec, workers=2, cache=False)
        for a, b in zip(serial.cells, pooled.cells):
            assert (a.distance, a.k) == (b.distance, b.k)
            assert np.array_equal(a.times, b.times)


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, cache_dir=str(tmp_path))
        second = run_sweep(spec, cache_dir=str(tmp_path))
        assert not first.from_cache
        assert second.from_cache
        for a, b in zip(first.cells, second.cells):
            assert (a.distance, a.k) == (b.distance, b.k)
            assert np.array_equal(a.times, b.times)

    def test_cache_disabled_writes_nothing(self, tmp_path):
        run_sweep(small_spec(), cache=False, cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_corrupt_entry_falls_back_to_recompute(self, tmp_path):
        spec = small_spec()
        path = cache_path(spec, str(tmp_path))
        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not an npz file")
        result = run_sweep(spec, cache_dir=str(tmp_path))
        assert not result.from_cache
        assert len(result) == 4

    def test_load_rejects_entry_for_different_spec(self, tmp_path):
        spec = small_spec()
        other = small_spec(seed=999)
        result = run_sweep(spec, cache=False)
        path = os.path.join(str(tmp_path), "entry.npz")
        cells = [c for c in spec.cells()]
        times = np.stack([c.times for c in result.cells])
        assert save_result(spec, path, cells, times)
        assert load_result(spec, path) is not None
        assert load_result(other, path) is None

    def test_quick_full_specs_cache_separately(self, tmp_path):
        quick = small_spec(trials=10)
        full = small_spec(trials=30)
        run_sweep(quick, cache_dir=str(tmp_path))
        run_sweep(full, cache_dir=str(tmp_path))
        assert _npz_entries(tmp_path) == 2
        assert run_sweep(quick, cache_dir=str(tmp_path)).from_cache
        assert run_sweep(full, cache_dir=str(tmp_path)).from_cache

    def test_changed_scenario_misses_identical_scenario_hits(self, tmp_path):
        plain = small_spec(trials=10)
        crashy = small_spec(
            trials=10, scenario=ScenarioSpec(crash_hazard=0.01), horizon=1e5
        )
        run_sweep(plain, cache_dir=str(tmp_path))
        # A perturbed spec must not be served the unperturbed entry.
        perturbed = run_sweep(crashy, cache_dir=str(tmp_path))
        assert not perturbed.from_cache
        assert _npz_entries(tmp_path) == 2
        # Identical specs (including an equal-but-not-identical scenario)
        # hit their own entries.
        again = run_sweep(
            small_spec(
                trials=10, scenario=ScenarioSpec(crash_hazard=0.01),
                horizon=1e5,
            ),
            cache_dir=str(tmp_path),
        )
        assert again.from_cache
        for a, b in zip(perturbed.cells, again.cells):
            assert np.array_equal(a.times, b.times)
        # The default-scenario spec still hits the plain entry.
        assert run_sweep(
            small_spec(trials=10, scenario=ScenarioSpec()),
            cache_dir=str(tmp_path),
        ).from_cache

    def test_scenario_changes_results(self, tmp_path):
        plain = run_sweep(small_spec(trials=15, horizon=1e5), cache=False)
        crashy = run_sweep(
            small_spec(
                trials=15, horizon=1e5,
                scenario=ScenarioSpec(crash_hazard=0.05),
            ),
            cache=False,
        )
        plain_times = np.concatenate([c.times for c in plain.cells])
        crashy_times = np.concatenate([c.times for c in crashy.cells])
        assert not np.array_equal(plain_times, crashy_times)


class TestCellResult:
    def test_summary_statistics(self):
        cell = CellResult(distance=8, k=2, times=np.array([10.0, 20.0, 30.0]))
        assert cell.trials == 3
        assert cell.mean == 20.0
        assert cell.success_rate == 1.0
        assert cell.stderr == pytest.approx(10.0 / math.sqrt(3))

    def test_failed_trials_sentinels(self):
        cell = CellResult(distance=8, k=2, times=np.array([10.0, np.inf]))
        assert math.isinf(cell.mean)
        assert math.isinf(cell.stderr)
        assert cell.success_rate == 0.5
        assert cell.finite_mean == 10.0

    def test_single_trial_stderr_is_nan(self):
        cell = CellResult(distance=8, k=2, times=np.array([10.0]))
        assert math.isnan(cell.stderr)


class TestEmptyGrid:
    def test_fully_filtered_grid_yields_empty_result(self, tmp_path):
        spec = small_spec(distances=(4,), ks=(8,), require_k_le_d=True)
        result = run_sweep(spec, cache_dir=str(tmp_path))
        assert len(result) == 0
        assert not result.from_cache
        assert os.listdir(tmp_path) == []


class TestManifestSidecars:
    """One file per entry: ``cache list`` reads each archive's metadata,
    and listing sidecars left by older versions are ignored and reclaimed.
    """

    SIDECAR = ".manifest.json"  # the suffix older versions wrote

    def _entry(self, tmp_path):
        from repro.sweep import list_entries

        entries = list_entries(str(tmp_path))
        assert len(entries) == 1
        return entries[0]

    def _legacy_sidecar(self, tmp_path, age_s):
        import json

        (npz,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
        sidecar = tmp_path / (npz.name + self.SIDECAR)
        sidecar.write_text(json.dumps({
            "kind": "sweep", "algorithm": "bogus", "cells": 999,
            "trials": 999, "npz_size": npz.stat().st_size,
        }))
        old = sidecar.stat().st_mtime - age_s
        os.utime(sidecar, (old, old))
        return sidecar

    def test_listing_reads_the_archive(self, tmp_path):
        run_sweep(small_spec(trials=10), cache_dir=str(tmp_path))
        assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
        entry = self._entry(tmp_path)
        assert entry.kind == "sweep"
        assert entry.algorithm == "nonuniform"
        assert entry.cells == 4
        assert entry.trials == 40

    def test_stale_sidecar_is_ignored(self, tmp_path):
        from repro.sweep.cache import clean_stale_files

        run_sweep(small_spec(trials=10), cache_dir=str(tmp_path))
        truth = self._entry(tmp_path)
        # Even a sidecar that matches the archive's size is not read;
        # it is reclaimed once stale, and the entry stays.
        sidecar = self._legacy_sidecar(tmp_path, age_s=0.0)
        assert self._entry(tmp_path) == truth
        assert clean_stale_files(str(tmp_path)) == []
        old = time.time() - 3600.0
        os.utime(sidecar, (old, old))
        assert clean_stale_files(str(tmp_path)) == [str(sidecar)]
        assert self._entry(tmp_path) == truth

    def test_prune_removes_sidecars(self, tmp_path, capsys):
        from repro.cli import main

        run_sweep(small_spec(trials=10), cache_dir=str(tmp_path))
        self._legacy_sidecar(tmp_path, age_s=3600.0)
        assert main([
            "cache", "prune", "--older-than", "0",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entries" in out
        assert "reclaimed 1 " in out
        assert list(tmp_path.iterdir()) == []


class TestAppendBlocks:
    def test_merge_keeps_longer_and_foreign_cells(self, tmp_path):
        from repro.stats import BudgetPolicy
        from repro.sweep import append_blocks, block_store_path, load_blocks, save_blocks

        spec = small_spec(
            budget=BudgetPolicy.target_rel_ci(1e-9, min_trials=32, max_trials=32)
        )
        path = block_store_path(spec, str(tmp_path))
        assert save_blocks(spec, path, {
            (8, 1): np.arange(64, dtype=np.float64),
            (99, 1): np.arange(32, dtype=np.float64),
        })
        # A writer that loaded (8,1) at 32 trials and extended nothing
        # must not clobber the disk's longer 64-trial version, and must
        # keep the (99,1) cell it never saw.
        assert append_blocks(spec, path, {
            (8, 1): np.arange(32, dtype=np.float64),
            (16, 4): np.arange(32, dtype=np.float64) + 7.0,
        })
        merged = load_blocks(spec, path)
        assert set(merged) == {(8, 1), (16, 4), (99, 1)}
        assert merged[(8, 1)].size == 64
        assert merged[(16, 4)][0] == 7.0
