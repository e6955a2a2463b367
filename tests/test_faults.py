"""Chaos tests for ``repro.faults`` (DESIGN.md §13).

The load-bearing guarantees:

* fault plans are declarative, serialisable, validated, and scheduled
  from their own registered RNG stream — never the spec's;
* every injected fault raises into a *real* recovery handler, so a
  faulted run of a recoverable plan is bitwise identical to a clean
  run on every backend (chaos parity);
* an unreachable process tier degrades to serial with a single
  warning, and corrupt cache entries are quarantined, instead of
  wedging the sweep;
* crash droppings — orphaned ``.sweep_tmp_*`` files, old quarantines —
  are reclaimed by sweep startup and ``cache prune``;
* a ``pool.kill`` budget is shared by every worker whatever the start
  method, and its crash file is gone once the driver exits.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.faults import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FAULTS,
    FaultPlan,
    FaultRule,
    backoff_delays,
    deactivate,
    fault_plan,
    load_plan,
)
from repro.faults import plan as plan_module
from repro.obs import MemorySink, tracing
from repro.stats import BudgetPolicy
from repro.sweep import (
    SweepSpec,
    VirtualExecutor,
    make_executor,
    run_sweep,
)
from repro.sweep.cache import (
    QUARANTINE_SUFFIX,
    TMP_PREFIX,
    block_store_path,
    cache_path,
    clean_stale_files,
    journal_path,
    list_entries,
    load_blocks,
    load_journal,
    load_result,
    save_result,
)
from repro.sweep.executor import CRASH_ENV, ProcessExecutor, SerialExecutor

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    """Every test starts and ends with the singleton disarmed."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    deactivate()
    assert not FAULTS.enabled
    yield
    deactivate()


def plan(*rules, seed=0):
    return FaultPlan(rules=tuple(rules), seed=seed)


def rule(site, **kw):
    return FaultRule(site=site, **kw)


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


def assert_sweeps_equal(a, b):
    assert len(a.cells) == len(b.cells)
    for x, y in zip(a.cells, b.cells):
        assert (x.distance, x.k) == (y.distance, y.k)
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


class TestFaultPlanModel:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="cache.reed")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="remote.connect")

    def test_rule_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", p=1.5)
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", after=-1)
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", times=-1)

    def test_json_roundtrip(self):
        original = plan(
            rule("cache.read", p=0.5, after=2, times=3),
            rule("cache.write", mode="crash"),
            seed=7,
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_load_plan_accepts_inline_json_and_files(self, tmp_path):
        original = plan(rule("pool.kill", times=1), seed=3)
        text = original.to_json()
        assert load_plan(text) == original  # inline JSON
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert load_plan(str(path)) == original  # file path

    def test_load_plan_rejects_malformed_json(self):
        with pytest.raises(ValueError):
            load_plan('{"rules": [{"site"')
        with pytest.raises(ValueError):
            load_plan(json.dumps({"rules": [{"mode": "error"}]}))

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "cache.read", "when": "always"})
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "cache.read", "delay": 0.25})

    def test_after_and_times_windows(self):
        with fault_plan(plan(rule("cache.read", after=1, times=1))):
            assert FAULTS.check("cache.read") is None  # skipped by after
            assert FAULTS.check("cache.read") is not None  # fires once
            assert FAULTS.check("cache.read") is None  # budget exhausted
            assert FAULTS.injections == {"cache.read": 1}

    def test_sites_are_independent(self):
        with fault_plan(plan(rule("cache.write", times=1))):
            assert FAULTS.check("cache.read") is None
            assert FAULTS.check("cache.write") is not None

    def test_probabilistic_schedule_is_reproducible(self):
        schedule = plan(rule("cache.read", p=0.4), seed=11)

        def pattern():
            with fault_plan(schedule):
                return [
                    FAULTS.check("cache.read") is not None
                    for _ in range(40)
                ]

        first = pattern()
        assert first == pattern()
        assert any(first) and not all(first)  # p is neither 0 nor 1

    def test_deactivate_disables_the_one_attribute_gate(self):
        with fault_plan(plan(rule("cache.read"))):
            assert FAULTS.enabled
        assert not FAULTS.enabled

    def test_every_site_is_documented(self):
        # The plan vocabulary is the public chaos surface; a seam added
        # without a FAULT_SITES entry would be unreachable from plans.
        for site in FAULT_SITES:
            FaultRule(site=site)  # constructs without error


class TestRetryHelper:
    def test_backoff_yields_capped_jittered_doubling(self):
        delays = list(
            backoff_delays(attempts=5, base_delay=0.1, max_delay=0.3)
        )
        assert len(delays) == 4  # attempts - 1 sleeps
        assert all(0.0 < d <= 0.3 * 1.25 for d in delays)
        # Doubling until the cap: later delays never shrink below an
        # earlier one by more than the jitter band.
        assert delays[-1] >= delays[0]


class TestCacheSeams:
    def _seed_cache(self, spec, tmp_path):
        run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        path = cache_path(spec, str(tmp_path))
        assert os.path.exists(path)
        return path

    def test_injected_read_error_is_a_plain_miss(self, tmp_path):
        spec = small_spec()
        path = self._seed_cache(spec, tmp_path)
        with fault_plan(plan(rule("cache.read", times=1))):
            assert load_result(spec, path) is None  # injected miss
            assert load_result(spec, path) is not None  # budget spent
        assert os.path.exists(path)  # transient: entry untouched

    def test_injected_corruption_quarantines_the_entry(self, tmp_path):
        spec = small_spec()
        path = self._seed_cache(spec, tmp_path)
        with fault_plan(plan(rule("cache.corrupt", times=1))):
            assert load_result(spec, path) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_quarantined_entry_is_rebuilt_bitwise(self, tmp_path):
        spec = small_spec()
        clean = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        with fault_plan(plan(rule("cache.corrupt", times=1))):
            rebuilt = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert not rebuilt.from_cache
        assert_sweeps_equal(clean, rebuilt)
        # The rebuild wrote a fresh, loadable entry.
        after = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert after.from_cache
        assert_sweeps_equal(clean, after)

    def test_injected_write_failure_skips_the_entry(self, tmp_path):
        spec = small_spec()
        path = cache_path(spec, str(tmp_path))
        with fault_plan(plan(rule("cache.write", times=1))):
            result = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert result.cells and not os.path.exists(path)

    def test_crash_mode_orphans_a_tmp_file(self, tmp_path):
        # The ENOSPC/kill -9 shape: temp written, rename never happens.
        spec = small_spec()
        cells = [  # a minimal valid payload for save_result
            c for c in spec.cells()
        ]
        times = np.zeros((len(cells), spec.trials))
        path = cache_path(spec, str(tmp_path))
        with fault_plan(plan(rule("cache.write", mode="crash", times=1))):
            assert not save_result(spec, path, cells, times)
        assert not os.path.exists(path)
        orphans = [
            name for name in os.listdir(tmp_path)
            if name.startswith(TMP_PREFIX)
        ]
        assert len(orphans) == 1

    def test_stale_droppings_are_reclaimed_by_age(self, tmp_path):
        fresh = tmp_path / (TMP_PREFIX + "live")
        stale_tmp = tmp_path / (TMP_PREFIX + "orphan")
        stale_q = tmp_path / ("entry.npz" + QUARANTINE_SUFFIX)
        unrelated = tmp_path / "sweep_real.npz"
        for target in (fresh, stale_tmp, stale_q, unrelated):
            target.write_bytes(b"x")
        old = time.time() - 3600.0
        os.utime(stale_tmp, (old, old))
        os.utime(stale_q, (old, old))
        removed = clean_stale_files(str(tmp_path))
        assert sorted(os.path.basename(p) for p in removed) == sorted(
            [stale_tmp.name, stale_q.name]
        )
        assert fresh.exists() and unrelated.exists()

    def test_sweep_startup_reclaims_stale_tmp(self, tmp_path):
        # Regression for the satellite: a crash-orphaned temp file is
        # gone after the next sweep in the same cache directory.
        orphan = tmp_path / (TMP_PREFIX + "crashed")
        orphan.write_bytes(b"x")
        old = time.time() - 3600.0
        os.utime(orphan, (old, old))
        run_sweep(small_spec(), cache=True, cache_dir=str(tmp_path))
        assert not orphan.exists()


class TestMalformedMetadata:
    """Well-formed archives with malformed metadata are broken entries.

    Each of the three entry kinds, with ``meta`` a JSON list or with a
    scalar where a cell belongs, loads as a miss, is quarantined, lists
    as ``unreadable``, and leaves the sweep that meets it bitwise.
    """

    @staticmethod
    def _case(kind, tmp_path):
        cache_dir = str(tmp_path)
        if kind == "blocks":
            spec = small_spec(budget=BudgetPolicy.target_rel_ci(
                0.5, min_trials=32, max_trials=64,
            ))
            return spec, block_store_path(spec, cache_dir), load_blocks, {}
        spec = small_spec()
        if kind == "journal":
            path = journal_path(spec, cache_dir)
            return spec, path, load_journal, {"resume": True}
        return spec, cache_path(spec, cache_dir), load_result, {}

    @staticmethod
    def _write(kind, defect, spec, path):
        identity = {
            "sweep": {"spec": spec.to_dict()},
            "blocks": {"format": 2, "data": spec.data_dict()},
            "journal": {"format": "journal", "spec": spec.to_dict()},
        }[kind]
        meta = [identity] if defect == "meta-list" else dict(identity, cells=[5])
        arrays = (
            {"times": np.zeros((1, spec.trials))}
            if kind == "sweep"
            else {"times_0": np.zeros(spec.trials)}
        )
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.asarray(json.dumps(meta)), **arrays)

    @pytest.mark.parametrize("defect", ["meta-list", "scalar-cell"])
    @pytest.mark.parametrize("kind", ["sweep", "blocks", "journal"])
    def test_is_a_quarantined_miss(self, tmp_path, kind, defect):
        spec, path, load, _ = self._case(kind, tmp_path)
        self._write(kind, defect, spec, path)
        assert not load(spec, path)
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    @pytest.mark.parametrize("defect", ["meta-list", "scalar-cell"])
    @pytest.mark.parametrize("kind", ["sweep", "blocks", "journal"])
    def test_lists_as_unreadable(self, tmp_path, kind, defect):
        spec, path, _, _ = self._case(kind, tmp_path)
        self._write(kind, defect, spec, path)
        [entry] = list_entries(str(tmp_path))
        assert entry.kind == "unreadable"
        assert os.path.exists(path)  # listing never quarantines

    @pytest.mark.parametrize("defect", ["meta-list", "scalar-cell"])
    @pytest.mark.parametrize("kind", ["sweep", "blocks", "journal"])
    def test_sweep_finishes_bitwise(self, tmp_path, kind, defect):
        spec, path, _, options = self._case(kind, tmp_path)
        clean = run_sweep(spec, cache=False)
        self._write(kind, defect, spec, path)
        result = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), **options
        )
        assert_sweeps_equal(clean, result)
        assert os.path.exists(path + QUARANTINE_SUFFIX)


class TestChaosParity:
    """Faulted recoverable runs are bitwise equal to clean runs."""

    RECOVERABLE = plan(
        rule("cache.read", times=1),
        rule("cache.corrupt", times=1, after=1),
        seed=5,
    )

    def test_parity_on_every_backend(self, tmp_path):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        run_sweep(spec, cache=True, cache_dir=str(tmp_path))  # seed cache

        def faulted(**kw):
            with fault_plan(self.RECOVERABLE):
                return run_sweep(
                    spec, cache=True, cache_dir=str(tmp_path), **kw
                )

        assert_sweeps_equal(baseline, faulted())
        assert_sweeps_equal(
            baseline, faulted(workers=2, backend="process")
        )
        with VirtualExecutor(
            workers=4, cost_fn=lambda fn, payload, result: 1.0
        ) as virtual:
            assert_sweeps_equal(baseline, faulted(executor=virtual))

    def test_pool_kill_parity(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        with fault_plan(plan(rule("pool.kill", times=1))):
            assert os.environ.get(CRASH_ENV)  # armed via the file hook
            faulted = run_sweep(
                spec, cache=False, workers=2, backend="process"
            )
        assert os.environ.get(CRASH_ENV) is None
        assert_sweeps_equal(baseline, faulted)


class TestPoolKillBudget:
    """``pool.kill`` fires as often as the plan says, in one process tree."""

    KILL_ONCE = json.dumps({"rules": [{"site": "pool.kill", "times": 1}]})

    def test_spawned_workers_share_the_driver_budget(self, monkeypatch):
        # Spawned workers start from a fresh interpreter.  A worker that
        # loaded REPRO_FAULT_PLAN itself would arm its own crash file
        # with the full budget, so every new worker would die and the
        # pool would crash until it gave up.
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        monkeypatch.setenv(FAULT_PLAN_ENV, self.KILL_ONCE)
        monkeypatch.setattr(plan_module, "_ENV_LOADED", False)
        with ProcessExecutor(
            2, mp_context=multiprocessing.get_context("spawn")
        ) as ex:
            faulted = run_sweep(spec, cache=False, executor=ex)
            assert ex.restarts == 1
        assert_sweeps_equal(baseline, faulted)

    def test_process_wide_plan_leaves_no_crash_file(self, tmp_path):
        # A plan activated for the whole process is never deactivated;
        # its crash file must still be gone once the interpreter exits.
        script = (
            "import os\n"
            "from repro.sweep import SweepSpec, run_sweep\n"
            "spec = SweepSpec(algorithm='nonuniform', distances=(8, 16),\n"
            "                 ks=(1, 4), trials=20, seed=42)\n"
            "run_sweep(spec, cache=False, workers=2, backend='process')\n"
            f"print(os.environ[{CRASH_ENV!r}])\n"
        )
        env = dict(os.environ)
        env.pop(CRASH_ENV, None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = str(tmp_path)
        env[FAULT_PLAN_ENV] = self.KILL_ONCE
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        )
        crash_file = done.stdout.strip().splitlines()[-1]
        assert os.path.dirname(crash_file) == str(tmp_path)  # it was armed
        assert not list(tmp_path.glob("repro_fault_kill_*"))


class TestDegradation:
    def test_auto_degrades_process_to_serial_on_injected_failure(self):
        with fault_plan(plan(rule("executor.process", times=1))):
            with pytest.warns(RuntimeWarning, match="degrading"):
                ex = make_executor(workers=2, backend="auto")
            with ex:
                assert isinstance(ex, SerialExecutor)

    def test_explicit_process_backend_never_degrades(self):
        with fault_plan(plan(rule("executor.process", times=1))):
            with pytest.raises(RuntimeError, match="injected"):
                make_executor(workers=2, backend="process")

    def test_degradation_emits_the_obs_event(self):
        sink = MemorySink()
        with fault_plan(plan(rule("executor.process", times=1))):
            with tracing(sink):
                with pytest.warns(RuntimeWarning):
                    make_executor(workers=2, backend="auto").close()
        degrades = [
            r for r in sink.records if r.get("name") == "fault.degrade"
        ]
        assert len(degrades) == 1
        assert degrades[0]["data"]["tier"] == "process"
        assert degrades[0]["data"]["fallback"] == "serial"

    def test_degraded_run_is_bitwise_identical(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        with fault_plan(plan(rule("executor.process", times=1))):
            with pytest.warns(RuntimeWarning, match="degrading"):
                ex = make_executor(workers=2, backend="auto")
        with ex:
            assert isinstance(ex, SerialExecutor)
            degraded = run_sweep(spec, cache=False, executor=ex)
        assert_sweeps_equal(baseline, degraded)
