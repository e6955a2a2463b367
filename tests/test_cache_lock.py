"""Regression tests for block-store writer serialisation (DESIGN.md §7).

``append_blocks`` is a read-merge-write cycle; before the store lockfile
two concurrent writers could interleave those cycles and the later
``os.replace`` would silently drop every cell the earlier writer had
just added.  Parallel experiment processes, or sweep drivers sharing
one cache directory, hit this race routinely.  These tests pin:

* the lost-update scenario itself (deterministically interleaved via a
  held lock, plus a multiprocess stress test);
* stale-lock takeover (a crashed writer must not wedge the store);
* the bounded-wait fallback (the cache must never block a sweep
  indefinitely — it degrades to the historical unserialised merge).
"""

import multiprocessing
import os
import threading

import numpy as np

import repro.sweep.cache as cache_mod
from repro.sweep import SweepSpec, append_blocks, load_blocks
from repro.sweep.cache import LOCK_SUFFIX, block_store_path


def make_spec():
    return SweepSpec(
        algorithm="nonuniform",
        distances=(8,),
        ks=(1,),
        trials=8,
        seed=7,
    )


def store_for(tmp_path):
    spec = make_spec()
    return spec, block_store_path(spec, str(tmp_path))


def _stress_writer(spec, path, index, rounds, barrier):
    barrier.wait()
    for round_no in range(rounds):
        blocks = {
            (100 * index + round_no, 1): np.full(32, float(index)),
        }
        assert append_blocks(spec, path, blocks)


class TestConcurrentWriters:
    def test_interleaved_writers_keep_both_cells(self, tmp_path):
        """The exact pre-lock lost-update interleaving, deterministically.

        Writer B starts its merge while writer A is mid-cycle (simulated
        by holding A's lock).  Before the lockfile, B would read the
        pre-A store, merge only its own cell, and A's subsequent replace
        — or B's, whichever landed second — would drop the other's cell.
        With the lock, B waits for A and merges on top of A's write.
        """
        spec, path = store_for(tmp_path)
        lock_path = path + LOCK_SUFFIX
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)

        b_done = threading.Event()

        def writer_b():
            append_blocks(spec, path, {(2, 1): np.full(32, 2.0)})
            b_done.set()

        thread = threading.Thread(target=writer_b)
        thread.start()
        try:
            # B must be parked on the lock, not merging: give it ample
            # time to (wrongly) finish if the lock is not honoured.
            assert not b_done.wait(timeout=0.5)
            # "A" completes its cycle and releases.
            assert cache_mod.save_blocks(
                spec, path, {(1, 1): np.full(32, 1.0)}
            )
        finally:
            os.unlink(lock_path)
            thread.join(timeout=30.0)
        assert b_done.is_set()
        merged = load_blocks(spec, path)
        assert set(merged) == {(1, 1), (2, 1)}

    def test_multiprocess_stress_no_cell_lost(self, tmp_path):
        """Hammer one store from several processes; every cell survives."""
        spec, path = store_for(tmp_path)
        writers, rounds = 4, 5
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(writers)
        procs = [
            ctx.Process(
                target=_stress_writer,
                args=(spec, path, index, rounds, barrier),
            )
            for index in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        merged = load_blocks(spec, path)
        expected = {
            (100 * index + round_no, 1)
            for index in range(writers)
            for round_no in range(rounds)
        }
        assert set(merged) == expected
        for (key, _), times in merged.items():
            assert np.all(times == float(key // 100))

    def test_lock_released_after_append(self, tmp_path):
        spec, path = store_for(tmp_path)
        assert append_blocks(spec, path, {(3, 1): np.full(32, 3.0)})
        assert not os.path.exists(path + LOCK_SUFFIX)
        assert set(load_blocks(spec, path)) == {(3, 1)}


class TestLockRecovery:
    def test_stale_lock_is_taken_over(self, tmp_path, monkeypatch):
        """A crashed writer's lockfile must not wedge the store."""
        monkeypatch.setattr(cache_mod, "LOCK_STALE_SECONDS", 0.05)
        spec, path = store_for(tmp_path)
        lock_path = path + LOCK_SUFFIX
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        ancient = os.stat(lock_path).st_mtime - 3600.0
        os.utime(lock_path, (ancient, ancient))

        assert append_blocks(spec, path, {(4, 1): np.full(32, 4.0)})
        assert set(load_blocks(spec, path)) == {(4, 1)}
        # The takeover's own lock was released too.
        assert not os.path.exists(lock_path)

    def test_timeout_degrades_to_unlocked_merge(self, tmp_path, monkeypatch):
        """A held (fresh) lock delays but never blocks a writer forever."""
        monkeypatch.setattr(cache_mod, "LOCK_TIMEOUT_SECONDS", 0.1)
        monkeypatch.setattr(cache_mod, "LOCK_STALE_SECONDS", 3600.0)
        spec, path = store_for(tmp_path)
        lock_path = path + LOCK_SUFFIX
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        try:
            assert append_blocks(spec, path, {(5, 1): np.full(32, 5.0)})
            assert set(load_blocks(spec, path)) == {(5, 1)}
            # Not ours: the timed-out writer must not delete the
            # holder's lockfile.
            assert os.path.exists(lock_path)
        finally:
            os.unlink(lock_path)

    def test_unwritable_directory_still_best_effort(self, tmp_path):
        spec = make_spec()
        path = os.path.join(
            str(tmp_path), "missing", "blocks_nonuniform_x.npz"
        )
        # No store directory and nothing creatable below a file: the
        # append must fail soft (False), never raise.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        bad_path = os.path.join(str(blocker), "sub", "store.npz")
        assert append_blocks(spec, bad_path, {(6, 1): np.ones(32)}) is False
        # A merely *missing* directory is created on demand.
        assert append_blocks(spec, path, {(6, 1): np.ones(32)})
        assert set(load_blocks(spec, path)) == {(6, 1)}
