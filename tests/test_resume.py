"""Checkpoint/resume tests: crash-only sweeps (DESIGN.md §13).

The contract under test:

* while a cached fixed-path sweep runs, finished cells checkpoint into
  an atomic per-spec journal; a driver killed with ``SIGKILL`` mid-sweep
  leaves either the previous journal or the next — never a torn file —
  and the v1 entry is only ever written whole;
* ``run_sweep(..., resume=True)`` after the kill tops the sweep up —
  simulating strictly fewer trials than a cold run — and the result is
  bitwise identical to an uninterrupted run;
* the journal is keyed by cell, not by task: it validates the spec
  identity, keeps only grid cells holding exactly ``spec.trials`` times,
  and resumes under any worker count;
* a failed final v1 write keeps the journal, so the next resume still
  skips the finished cells;
* adaptive sweeps flush folded blocks on the checkpoint cadence, so a
  killed driver loses at most one interval of work and the block store
  stays loadable.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np

from repro.faults import FaultPlan, FaultRule, fault_plan
from repro.stats import BudgetPolicy
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import (
    QUARANTINE_SUFFIX,
    _atomic_savez,
    block_store_path,
    cache_path,
    clear_journal,
    journal_path,
    load_journal,
    save_journal,
)
from repro.sweep.runner import _execute_chunk, _fixed_tasks

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src")
)

#: Shared by the in-process tests and the killed-child scripts below:
#: four k-groups => four fixed tasks, so a mid-sweep kill always lands
#: between checkpoints.
SPEC_ARGS = dict(
    algorithm="nonuniform",
    distances=(8, 16),
    ks=(1, 2, 4, 8),
    trials=50,
    seed=42,
)


def spec_of(**overrides):
    base = dict(SPEC_ARGS)
    base.update(overrides)
    return SweepSpec(**base)


def assert_sweeps_equal(a, b):
    assert len(a.cells) == len(b.cells)
    for x, y in zip(a.cells, b.cells):
        assert (x.distance, x.k) == (y.distance, y.k)
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


def cells_of(spec, *indices):
    """The cells of fixed tasks ``indices``, keyed as a journal keys them."""
    tasks = _fixed_tasks(spec)
    done = {}
    for index in indices:
        _, k, distances, *_ = tasks[index]
        matrix = _execute_chunk(tasks[index])
        for distance, times in zip(distances, matrix):
            done[(distance, k)] = times
    return done


class TestJournalStore:
    def test_roundtrip_by_cell(self, tmp_path):
        spec = spec_of()
        done = cells_of(spec, 0, 2)
        path = journal_path(spec, str(tmp_path))
        assert save_journal(spec, path, done)
        back = load_journal(spec, path)
        assert sorted(back) == [(8, 1), (8, 4), (16, 1), (16, 4)]
        for key in back:
            assert np.array_equal(back[key], done[key])

    def test_foreign_spec_loads_empty(self, tmp_path):
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        save_journal(spec, path, {(8, 1): np.zeros(spec.trials)})
        other = spec_of(seed=43)
        assert load_journal(other, path) == {}

    def test_off_grid_cells_are_dropped(self, tmp_path):
        # A cell the resuming spec's grid does not hold can never feed
        # its result, whatever the journal claims.
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        save_journal(spec, path, {
            (8, 1): np.ones(spec.trials),
            (999, 9): np.zeros(spec.trials),
        })
        back = load_journal(spec, path)
        assert sorted(back) == [(8, 1)]
        assert np.array_equal(back[(8, 1)], np.ones(spec.trials))

    def test_wrong_shape_entries_are_dropped(self, tmp_path):
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        save_journal(
            spec, path,
            {(8, 1): np.zeros(spec.trials + 1)},  # trailing-trial junk
        )
        assert load_journal(spec, path) == {}

    def test_task_layout_journal_loads_empty(self, tmp_path):
        # Journals written before the cell layout keyed matrices by task
        # index.  They load as empty without quarantine: a resume runs
        # cold and is still bitwise.
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        meta = {
            "format": "journal", "spec": spec.to_dict(),
            "tasks": [[0, 1, [8, 16]]],
        }
        assert _atomic_savez(
            path, meta, {"task_0": np.zeros((2, spec.trials))}
        )
        assert load_journal(spec, path) == {}
        assert os.path.exists(path)
        assert not os.path.exists(path + QUARANTINE_SUFFIX)

    def test_corrupt_journal_is_quarantined(self, tmp_path):
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"not a zip archive")
        assert load_journal(spec, path) == {}
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_clear_removes_journal_and_sidecar(self, tmp_path):
        spec = spec_of()
        path = journal_path(spec, str(tmp_path))
        save_journal(spec, path, {(8, 1): np.zeros(spec.trials)})
        clear_journal(path)
        assert os.listdir(tmp_path) == []


class TestResumeSemantics:
    def test_completed_run_leaves_no_journal(self, tmp_path):
        spec = spec_of()
        run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), checkpoint_s=0.0
        )
        assert not os.path.exists(journal_path(spec, str(tmp_path)))
        assert os.path.exists(cache_path(spec, str(tmp_path)))

    def test_resume_without_journal_runs_cold(self, tmp_path):
        spec = spec_of()
        clean = run_sweep(spec, cache=False)
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), resume=True
        )
        assert_sweeps_equal(clean, resumed)

    def test_resume_skips_journaled_tasks_bitwise(self, tmp_path):
        spec = spec_of()
        clean = run_sweep(spec, cache=False)
        save_journal(
            spec, journal_path(spec, str(tmp_path)), cells_of(spec, 0, 1)
        )
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), resume=True,
            progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        total = sum(c.times.size for c in clean.cells)
        new = sum(e.new_trials for e in events)
        assert 0 < new < total  # topped up, strictly less than cold
        # The journal is consumed into the v1 entry.
        assert not os.path.exists(journal_path(spec, str(tmp_path)))
        assert run_sweep(
            spec, cache=True, cache_dir=str(tmp_path)
        ).from_cache

    def test_partly_journaled_task_reruns_whole(self, tmp_path):
        # An excursion task shares its draws across its cells, so it is
        # skipped only when every one of its cells is journaled.
        spec = spec_of()
        clean = run_sweep(spec, cache=False)
        journaled = cells_of(spec, 0)
        del journaled[(16, 1)]
        save_journal(spec, journal_path(spec, str(tmp_path)), journaled)
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), resume=True,
            progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        assert all(e.new_trials == spec.trials for e in events)

    def test_checkpoint_none_disables_journaling(self, tmp_path):
        spec = spec_of()
        save_journal(
            spec, journal_path(spec, str(tmp_path)), cells_of(spec, 0)
        )
        events = []
        run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), resume=False,
            checkpoint_s=None, progress=events.append,
        )
        # resume=False + checkpoint_s=None: the journal is neither read
        # nor replaced, and every trial was simulated fresh.
        assert all(e.new_trials > 0 for e in events)
        assert os.path.exists(journal_path(spec, str(tmp_path)))

    def test_failed_final_save_keeps_journal(self, tmp_path):
        # Four tasks checkpoint after each of the first three; the
        # fourth cache write is the v1 entry, and it fails.  The journal
        # must survive it, so the resume recomputes only the last task.
        spec = spec_of()
        clean = run_sweep(spec, cache=False)
        failing = FaultPlan(
            rules=(FaultRule(site="cache.write", after=3, times=1),)
        )
        with fault_plan(failing):
            run_sweep(
                spec, cache=True, cache_dir=str(tmp_path), checkpoint_s=0.0
            )
        assert not os.path.exists(cache_path(spec, str(tmp_path)))
        assert os.path.exists(journal_path(spec, str(tmp_path)))
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), resume=True,
            progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        total = sum(c.times.size for c in clean.cells)
        assert 0 < sum(e.new_trials for e in events) < total
        assert not os.path.exists(journal_path(spec, str(tmp_path)))


class TestPerCellResume:
    """The journal keys cells, so it resumes under any worker count."""

    WALKER = dict(
        algorithm="random_walk", distances=(4, 8, 12), ks=(1, 2),
        trials=20, seed=7, horizon=300.0,
    )

    def test_pool_journal_resumes_serially(self, tmp_path):
        # A two-worker pool journals cells in completion order; its last
        # cache write (the v1 entry) fails, leaving every cell but the
        # last one journaled.  A serial resume finishes bitwise.
        spec = spec_of(**self.WALKER)
        clean = run_sweep(spec, cache=False)
        writes_before_v1 = len(spec.cells()) - 1
        failing = FaultPlan(
            rules=(
                FaultRule(
                    site="cache.write", after=writes_before_v1, times=1
                ),
            )
        )
        with fault_plan(failing):
            run_sweep(
                spec, cache=True, cache_dir=str(tmp_path), workers=2,
                backend="process", checkpoint_s=0.0,
            )
        journal = journal_path(spec, str(tmp_path))
        assert len(load_journal(spec, journal)) == writes_before_v1
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), workers=1,
            backend="serial", resume=True, progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        assert sum(e.new_trials for e in events) == spec.trials


#: Driver script killed with SIGKILL mid-sweep.  The progress callback
#: sleeps so the parent can land the kill between task checkpoints;
#: ``checkpoint_s=0`` journals after every completed chunk.
_KILLED_FIXED_DRIVER = """\
import sys, time
from repro.sweep import SweepSpec, run_sweep

spec = SweepSpec(**{spec_args!r})

def report(event):
    print(f"cell {{event.distance}} {{event.k}}", flush=True)
    time.sleep(0.2)

run_sweep(
    spec, cache=True, cache_dir=sys.argv[1], workers=1,
    backend="serial", checkpoint_s=0.0, progress=report,
)
print("DONE", flush=True)
"""

_KILLED_ADAPTIVE_DRIVER = """\
import sys
from repro.stats import BudgetPolicy
from repro.sweep import SweepSpec, run_sweep

spec = SweepSpec(
    **{spec_args!r},
    budget=BudgetPolicy.target_rel_ci(1e-9, min_trials=32, max_trials=1024),
)
run_sweep(
    spec, cache=True, cache_dir=sys.argv[1], workers=1,
    backend="serial", checkpoint_s=0.0,
)
print("DONE", flush=True)
"""


def _spawn_driver(script, cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


class TestDriverKill:
    def test_sigkill_then_resume_is_bitwise_and_cheaper(self, tmp_path):
        """The headline property: kill -9 mid-sweep, --resume, bitwise."""
        spec = spec_of()
        script = _KILLED_FIXED_DRIVER.format(spec_args=SPEC_ARGS)
        child = _spawn_driver(script, tmp_path)
        try:
            # Wait until a second k-group starts reporting: the first
            # group's chunk is then definitely journaled (the journal
            # write precedes the next group's progress lines).
            seen_ks = set()
            for _ in range(64):
                line = child.stdout.readline()
                assert line and "DONE" not in line, (
                    "driver finished before the kill landed"
                )
                seen_ks.add(line.split()[-1])
                if len(seen_ks) >= 2:
                    break
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
            child.stderr.close()
        assert child.returncode == -signal.SIGKILL

        # The kill left a consistent cache directory: a valid journal,
        # no v1 entry, no torn files a resume would trip over.
        journal = journal_path(spec, str(tmp_path))
        assert os.path.exists(journal)
        recovered = load_journal(spec, journal)
        assert recovered  # at least the first chunk survived
        assert not os.path.exists(cache_path(spec, str(tmp_path)))

        clean = run_sweep(spec, cache=False)
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), workers=1,
            backend="serial", resume=True, progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        total = sum(c.times.size for c in clean.cells)
        new = sum(e.new_trials for e in events)
        assert new < total  # strictly fewer trials than a cold run
        assert not os.path.exists(journal)  # consumed into the v1 entry

    def test_sigkill_mid_adaptive_leaves_loadable_store(self, tmp_path):
        spec = spec_of(
            budget=BudgetPolicy.target_rel_ci(
                1e-9, min_trials=32, max_trials=1024
            ),
        )
        script = _KILLED_ADAPTIVE_DRIVER.format(spec_args=SPEC_ARGS)
        child = _spawn_driver(script, tmp_path)
        store = block_store_path(spec, str(tmp_path))
        try:
            # Kill as soon as the first mid-sweep flush lands on disk.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if os.path.exists(store) or child.poll() is not None:
                    break
                time.sleep(0.01)
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
            child.stdout.close()
            child.stderr.close()

        clean = run_sweep(spec, cache=False)
        events = []
        resumed = run_sweep(
            spec, cache=True, cache_dir=str(tmp_path), workers=1,
            backend="serial", resume=True, progress=events.append,
        )
        assert_sweeps_equal(clean, resumed)
        if child.returncode == -signal.SIGKILL:
            # The flushed prefix gave the resume a real head start.
            total = sum(c.times.size for c in clean.cells)
            assert sum(e.new_trials for e in events) < total
