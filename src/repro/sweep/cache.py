"""On-disk result cache for sweeps: two entry layouts, one reader.

Three kinds of entry share one directory, in two layouts:

* **v1 — full-matrix entries** (``sweep_<algorithm>_<spec_hash>.npz``):
  one fixed-trials sweep = one file keyed by the spec's content hash,
  holding the complete ``(cells, trials)`` find-time matrix as ``times``
  plus a JSON metadata record (the spec dict and the ``[distance, k]``
  cell list).  This is the format every release has written; fixed-budget
  sweeps still write it, so old entries keep hitting (v1 read
  compatibility is a contract, enforced by
  ``tests/test_adaptive_sweep.py``).

* **The cell layout** — metadata with ``cells: [[distance, k, trials],
  ...]`` and one 1-D ``times_<i>`` array per cell — holds two kinds:

  - **block stores** (``blocks_<algorithm>_<data_hash>.npz``,
    ``format: 2``): the adaptive runner's append-only cache, keyed by the
    spec's *data* hash (:meth:`repro.sweep.spec.SweepSpec.data_hash` —
    everything that fixes block content, nothing that fixes allocation).
    Cells accumulate across runs, grids and precision targets, so a
    200-trial cell tops up to 1000 by appending blocks rather than
    recomputing;
  - **checkpoint journals** (``journal_<algorithm>_<spec_hash>.npz``,
    ``format: "journal"``): the finished cells of a running fixed-path
    sweep, keyed by the full spec, deleted once the v1 entry is written.

Every entry is one ``.npz`` file and nothing else: its JSON ``meta``
member is the only metadata, for loading and for listing alike.  Every
read goes through :func:`_read_entry`, which runs the fault seam, opens
the archive, parses the metadata and quarantines broken entries;
``repro-ants cache list`` decompresses only the ``meta`` member.

Storing raw times rather than summary statistics means cached sweeps can
answer *new* questions (quantiles, success rates under a different
horizon) without recomputation.

The cache directory resolves, in order, to the ``REPRO_SWEEP_CACHE``
environment variable or ``~/.cache/repro-ants/sweeps``.  All cache I/O is
best-effort: a missing, unreadable or stale entry silently falls back to
recomputation, and writes go through a temp file + atomic rename so that a
crashed run never leaves a truncated entry behind.  Block-store merges
also run under a per-store lockfile (:func:`_store_lock`), since several
driver processes — parallel experiments, or sweeps on hosts sharing one
cache directory — can extend the same store.  The ``repro-ants
cache`` CLI (``list`` / ``prune`` / ``path``) is a thin layer over
:func:`list_entries` and :func:`prune_entries`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from ..faults import FAULTS, FaultError, backoff_delays
from ..obs import BUS
from .spec import SweepCell, SweepSpec

__all__ = [
    "default_cache_dir",
    "cache_path",
    "load_result",
    "save_result",
    "block_store_path",
    "load_blocks",
    "save_blocks",
    "append_blocks",
    "journal_path",
    "load_journal",
    "save_journal",
    "clear_journal",
    "clean_stale_files",
    "CacheEntry",
    "list_entries",
    "prune_entries",
]

#: Older versions wrote a listing sidecar ``<entry>.npz.manifest.json``
#: next to every entry; nothing reads them now, and
#: :func:`clean_stale_files` reclaims them.
_LEGACY_SIDECAR_SUFFIX = ".manifest.json"

#: Lockfile suffix serialising block-store read-merge-write cycles:
#: ``<entry>.npz`` pairs with ``<entry>.npz.lock`` while a writer is
#: inside :func:`append_blocks`.
LOCK_SUFFIX = ".lock"

#: A lockfile older than this is presumed abandoned (its writer died
#: between acquire and release) and is taken over.  Merges are a few
#: milliseconds of JSON + array copying, so half a minute is orders of
#: magnitude past any live holder.
LOCK_STALE_SECONDS = 30.0

#: How long a writer waits for the lock before proceeding *unlocked*.
#: The cache is best-effort by contract — blocking a sweep on a cache
#: serialisation would invert its priorities — and the unlocked merge
#: degrades exactly to the pre-lock behaviour (worst case: one racing
#: top-up lost, never a foreign cell).
LOCK_TIMEOUT_SECONDS = 10.0

#: Poll interval while waiting on a held lock (the backoff base; waits
#: grow from here via :func:`repro.faults.backoff_delays`).
_LOCK_POLL_SECONDS = 0.01

#: Longest single backoff while polling a held lock.
_LOCK_POLL_MAX_SECONDS = 0.25

#: Temp-file prefix shared by every atomic write in this directory; a
#: crash between write and rename leaves one of these behind, reclaimed
#: by :func:`clean_stale_files`.
TMP_PREFIX = ".sweep_tmp_"

#: A corrupt entry is renamed aside with this suffix (quarantined)
#: instead of being retried forever; :func:`clean_stale_files` reclaims
#: old quarantines.
QUARANTINE_SUFFIX = ".quarantine"

#: Temp droppings and quarantined entries older than this are presumed
#: abandoned.  Live atomic writes last milliseconds, so five minutes is
#: orders of magnitude past any writer that is still coming back.
STALE_FILE_SECONDS = 300.0

CellKey = Tuple[int, int]

T = TypeVar("T")

#: What reading broken entry content raises: a bad zip, a missing
#: member, metadata that is not a JSON object, a cell list that does not
#: parse.  :func:`_read_entry` quarantines such entries and
#: :func:`list_entries` reports them as ``unreadable``.
_BROKEN = (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile)


def _quarantine(path: str, kind: str) -> bool:
    """Rename a corrupt entry aside so the slot can be rebuilt cleanly.

    A corrupt archive would otherwise be re-opened (and re-fail) on
    every lookup, and — worse for block stores — a fresh merge would
    race the broken file's name.  Renaming is atomic, keeps the bytes
    for forensics, and frees the path for the recomputed entry.
    """
    try:
        os.replace(path, path + QUARANTINE_SUFFIX)
    except OSError:
        return False
    if BUS.enabled:
        BUS.counter(
            "cache.quarantine", kind=kind, path=os.path.basename(path)
        )
    return True


def default_cache_dir() -> str:
    """Resolve the sweep cache directory (env override, then XDG-ish home)."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-ants", "sweeps")


def cache_path(spec: SweepSpec, cache_dir: Optional[str] = None) -> str:
    """The v1 cache file a spec maps to (which need not exist yet)."""
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(directory, f"sweep_{spec.algorithm}_{spec.spec_hash()}.npz")


def load_result(
    spec: SweepSpec, path: str
) -> Optional[Tuple[List[SweepCell], np.ndarray]]:
    """Load a cached sweep, or ``None`` when absent, corrupt, or stale.

    The stored spec dict is compared against ``spec`` (not just the hash) so
    a hash collision or a hand-edited file can never smuggle in results for
    a different sweep.
    """

    def parse(meta: Dict, archive) -> Optional[Tuple[List[SweepCell], np.ndarray]]:
        if meta.get("spec") != spec.to_dict():
            return None
        cells = [
            SweepCell(distance=int(d), k=int(k))
            for d, k in meta.get("cells", [])
        ]
        times = np.asarray(archive["times"], dtype=np.float64)
        if times.shape != (len(cells), spec.trials):
            return None
        return cells, times

    loaded = _read_entry(path, "sweep", parse)
    if BUS.enabled:
        if loaded is None:
            BUS.counter("cache.miss", kind="sweep", algorithm=spec.algorithm)
        else:
            BUS.counter(
                "cache.hit", kind="sweep", algorithm=spec.algorithm,
                cells=len(loaded[0]), trials=int(loaded[1].size),
            )
    return loaded


def save_result(
    spec: SweepSpec, path: str, cells: List[SweepCell], times: np.ndarray
) -> bool:
    """Persist a fixed-trials sweep result; returns whether it succeeded."""
    meta = {
        "spec": spec.to_dict(),
        "cells": [[cell.distance, cell.k] for cell in cells],
    }
    return _atomic_savez(path, meta, {"times": times})


def block_store_path(spec: SweepSpec, cache_dir: Optional[str] = None) -> str:
    """The v2 block-store file a spec's data identity maps to."""
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(
        directory, f"blocks_{spec.algorithm}_{spec.data_hash()}.npz"
    )


def load_blocks(spec: SweepSpec, path: str) -> Dict[CellKey, np.ndarray]:
    """Load every cached cell of a spec's block store.

    Returns ``{(distance, k): times}`` with each times array holding the
    cell's concatenated trial blocks in schedule order.  Absent, corrupt,
    or foreign stores (a different data identity behind the same file
    name) load as empty — the adaptive runner then just simulates.
    """
    out = _load_blocks(spec, path)
    if BUS.enabled:
        # Only runner-initiated lookups count toward the hit rate;
        # append_blocks' internal merge-read goes through _load_blocks.
        if out:
            BUS.counter(
                "cache.hit", kind="blocks", algorithm=spec.algorithm,
                cells=len(out),
                trials=int(sum(times.size for times in out.values())),
            )
        else:
            BUS.counter("cache.miss", kind="blocks", algorithm=spec.algorithm)
    return out


def _load_blocks(spec: SweepSpec, path: str) -> Dict[CellKey, np.ndarray]:
    """:func:`load_blocks` without the cache hit/miss accounting."""

    def parse(meta: Dict, archive) -> Optional[Dict[CellKey, np.ndarray]]:
        if meta.get("format") != 2 or meta.get("data") != spec.data_dict():
            return None
        return _parse_cells(meta, archive)

    return _read_entry(path, "blocks", parse) or {}


def _check_read_faults() -> None:
    """The injection seam shared by every cache read path.

    ``cache.read`` simulates the I/O error class (plain miss),
    ``cache.corrupt`` the truncated-archive class (quarantine + rebuild)
    — each raises into the *real* recovery handler of
    :func:`_read_entry`, so chaos runs exercise production code, not
    injection-aware shims.
    """
    if FAULTS.check("cache.read") is not None:
        raise FaultError("injected cache read failure")
    if FAULTS.check("cache.corrupt") is not None:
        raise zipfile.BadZipFile("injected cache corruption")


def _parse_archive(path: str, parse: Callable[[Dict, Any], T]) -> T:
    """Open an entry, decode its JSON ``meta`` object, and ``parse`` it.

    Raises ``OSError`` when the file cannot be read and one of
    :data:`_BROKEN` when its content is broken.
    """
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        if not isinstance(meta, dict):
            raise ValueError("entry metadata is not a JSON object")
        return parse(meta, archive)


def _read_entry(
    path: str, kind: str, parse: Callable[[Dict, Any], Optional[T]]
) -> Optional[T]:
    """The one cache read: fault seam, archive, metadata, quarantine.

    ``parse(meta, archive)`` returns the entry's value, ``None`` for a
    foreign or stale entry (another spec or data identity, a wrong
    ``format`` marker, a shape mismatch), or raises for broken content.
    An ``OSError`` — a missing file, transient I/O, an injected
    ``cache.read`` — is a plain miss, recomputed and never quarantined.
    Broken content (a bad zip, a missing member, metadata that is not a
    JSON object, a cell list that does not parse) is a miss too, and the
    entry is quarantined so the slot rebuilds instead of re-failing
    every lookup.  Foreign and stale entries stay where they are.
    """
    try:
        if FAULTS.enabled:
            _check_read_faults()
        return _parse_archive(path, parse)
    except OSError:
        return None
    except _BROKEN:
        if os.path.exists(path):
            _quarantine(path, kind=kind)
        return None


def _parse_cells(meta: Dict, archive) -> Dict[CellKey, np.ndarray]:
    """The cell layout's ``{(distance, k): times}``.

    A cell whose array disagrees with its recorded trial count (a
    truncated entry) is dropped alone; the rest of the entry stays.
    """
    out: Dict[CellKey, np.ndarray] = {}
    for index, (distance, k, trials) in enumerate(meta.get("cells", [])):
        times = np.asarray(archive[f"times_{index}"], dtype=np.float64)
        if times.ndim == 1 and times.size == int(trials):
            out[(int(distance), int(k))] = times
    return out


def _save_cells(
    path: str, meta: Dict, cells: Mapping[CellKey, np.ndarray]
) -> bool:
    """Write the cell layout: ``meta`` + ``cells`` + ``times_<i>``.

    ``meta`` gains ``cells: [[distance, k, trials], ...]`` in sorted cell
    order, and cell ``i`` of that list is stored as ``times_<i>``.
    """
    ordered = sorted(cells.items())
    meta = dict(meta, cells=[
        [distance, k, int(times.size)] for (distance, k), times in ordered
    ])
    arrays = {
        f"times_{index}": np.asarray(times, dtype=np.float64)
        for index, (_, times) in enumerate(ordered)
    }
    return _atomic_savez(path, meta, arrays)


def save_blocks(
    spec: SweepSpec, path: str, blocks: Mapping[CellKey, np.ndarray]
) -> bool:
    """Persist a block store (all cells, atomically); returns success.

    Callers pass the *full* merged cell map — load, extend, save — so a
    store never loses cells another grid contributed.
    """
    return _save_cells(path, {"format": 2, "data": spec.data_dict()}, blocks)


@contextmanager
def _store_lock(path: str) -> Iterator[bool]:
    """Serialise one store's read-merge-write cycle with an O_EXCL lockfile.

    Creating ``<path>.lock`` with ``O_CREAT | O_EXCL`` is atomic on every
    platform and filesystem the cache targets, including NFS mounts that
    several driver processes share.  The file records ``pid host time`` for
    debugging.  Three exits:

    * acquired — yields ``True``; the lockfile is removed on exit.
    * stale takeover — a lock older than :data:`LOCK_STALE_SECONDS`
      (by mtime) is unlinked and acquisition retried; a crashed writer
      therefore stalls successors for at most the stale window.
    * timeout — after :data:`LOCK_TIMEOUT_SECONDS` the writer proceeds
      *without* the lock (yields ``False``): the cache is best-effort,
      and an unserialised merge is strictly better than a blocked sweep.
    """
    lock_path = path + LOCK_SUFFIX
    directory = os.path.dirname(path)
    waited_from = time.monotonic()
    deadline = waited_from + LOCK_TIMEOUT_SECONDS
    # Unified backoff (repro.faults): polls start at the historical
    # 10 ms and grow, jittered, to a cap — herds of writers contending
    # for one store de-synchronise instead of stampeding each retry.
    delays = backoff_delays(
        attempts=1 << 16,
        base_delay=_LOCK_POLL_SECONDS,
        max_delay=_LOCK_POLL_MAX_SECONDS,
    )
    acquired = False
    while True:
        try:
            if directory:
                os.makedirs(directory, exist_ok=True)
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - os.stat(lock_path).st_mtime
            except OSError:
                continue  # holder released between open and stat; retry
            if age > LOCK_STALE_SECONDS:
                try:
                    os.unlink(lock_path)  # abandoned: take it over
                except OSError:
                    pass  # someone else's takeover won; retry
                continue
            if time.monotonic() >= deadline:
                break  # proceed unlocked; see docstring
            time.sleep(next(delays, _LOCK_POLL_MAX_SECONDS))
        except OSError:
            break  # unwritable cache dir: the save will no-op anyway
        else:
            acquired = True
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(
                        f"{os.getpid()} {os.uname().nodename} {time.time()}\n"
                    )
            except OSError:
                pass  # contents are debug-only
            break
    if BUS.enabled:
        BUS.gauge(
            "cache.lock_wait",
            time.monotonic() - waited_from,
            acquired=acquired,
        )
    try:
        yield acquired
    finally:
        if acquired:
            try:
                os.unlink(lock_path)
            except OSError:
                pass


def append_blocks(
    spec: SweepSpec, path: str, blocks: Mapping[CellKey, np.ndarray]
) -> bool:
    """Merge executor results into a block store (read-modify-write).

    ``blocks`` is the writer's view: the cells it loaded at sweep start
    plus every cell the executor extended.  The read-merge-write cycle
    runs under the store's lockfile (:func:`_store_lock`), so concurrent
    writers — parallel experiment processes or sweep drivers sharing one
    store — serialise and every writer's cells survive; per cell, the
    longer array wins.  (Blocks are deterministic prefixes of one
    stream, so "longer" strictly supersedes "shorter".)  If the lock
    cannot be acquired within the timeout the merge proceeds unlocked,
    degrading to the historical best-effort behaviour: at worst a racing
    window of one cell's *top-up* is lost, never another writer's whole
    contribution.
    """
    with _store_lock(path):
        merged: Dict[CellKey, np.ndarray] = dict(blocks)
        for key, times in _load_blocks(spec, path).items():
            if key not in merged or times.size > merged[key].size:
                merged[key] = times
        saved = save_blocks(spec, path, merged)
    if BUS.enabled:
        BUS.counter(
            "cache.append", kind="blocks", algorithm=spec.algorithm,
            cells=len(merged),
        )
    return saved


# ----------------------------------------------------------------------
# Checkpoint journals (crash-only fixed-path sweeps; DESIGN.md §13)
# ----------------------------------------------------------------------

def journal_path(spec: SweepSpec, cache_dir: Optional[str] = None) -> str:
    """The checkpoint journal a fixed-path sweep writes while running.

    Keyed by the *full* spec hash, like the v1 entry it will become.
    A journal holds finished cells in the block store's cell layout, so
    it carries no task identity and resumes under any worker count.
    """
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(
        directory, f"journal_{spec.algorithm}_{spec.spec_hash()}.npz"
    )


def load_journal(spec: SweepSpec, path: str) -> Dict[CellKey, np.ndarray]:
    """Finished cells of an interrupted sweep, as ``{(distance, k): times}``.

    Absent, corrupt, or foreign journals load as empty — the sweep then
    simply runs cold.  The stored spec dict is compared against ``spec``
    so a resumed run can never splice in another sweep's cells, and only
    grid cells holding exactly ``spec.trials`` times are kept.  Journals
    from before the cell layout (a ``tasks`` list instead of ``cells``)
    load as empty, so their resume runs cold and is still bitwise.
    """

    def parse(meta: Dict, archive) -> Optional[Dict[CellKey, np.ndarray]]:
        if meta.get("format") != "journal" or meta.get("spec") != spec.to_dict():
            return None
        grid = {(cell.distance, cell.k) for cell in spec.cells()}
        return {
            key: times
            for key, times in _parse_cells(meta, archive).items()
            if key in grid and times.size == spec.trials
        }

    return _read_entry(path, "journal", parse) or {}


def save_journal(
    spec: SweepSpec, path: str, done: Mapping[CellKey, np.ndarray]
) -> bool:
    """Atomically persist the finished cells of a running sweep.

    Each write replaces the whole journal via the same temp-file +
    rename path as every other entry, so a driver killed mid-checkpoint
    leaves either the previous journal or the new one — never a torn
    file (the SIGKILL property test in ``tests/test_resume.py``).
    """
    meta = {"format": "journal", "spec": spec.to_dict()}
    return _save_cells(path, meta, done)


def clear_journal(path: str) -> None:
    """Remove a completed sweep's journal."""
    try:
        os.unlink(path)
    except OSError:
        pass


def clean_stale_files(
    cache_dir: Optional[str] = None,
    *,
    max_age_s: float = STALE_FILE_SECONDS,
    now: Optional[float] = None,
) -> List[str]:
    """Reclaim droppings: stale temp files, old quarantines, old sidecars.

    A writer killed between temp write and rename orphans a
    ``.sweep_tmp_*`` file forever (nothing else ever looks at it),
    quarantined entries keep their bytes only for forensics, and listing
    sidecars written by older versions are read by nothing.  All are
    removed once older than ``max_age_s`` — young files are left alone
    so a *live* concurrent writer's temp is never pulled out from under
    it.  Called at sweep startup and by ``repro-ants cache prune``;
    returns the removed paths.
    """
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    cutoff = (now if now is not None else time.time()) - max_age_s
    removed: List[str] = []
    for name in sorted(names):
        if not (
            name.startswith(TMP_PREFIX)
            or name.endswith((QUARANTINE_SUFFIX, _LEGACY_SIDECAR_SUFFIX))
        ):
            continue
        path = os.path.join(directory, name)
        try:
            if os.stat(path).st_mtime > cutoff:
                continue
            os.unlink(path)
        except OSError:
            continue  # vanished or unwritable; best-effort
        removed.append(path)
    if removed and BUS.enabled:
        BUS.counter("cache.tmp_clean", removed=len(removed))
    return removed


def _manifest_record(meta: Dict) -> Dict:
    """The listing-facing summary of one entry's metadata.

    Raises on malformed metadata, like the readers do.
    """
    fmt = meta.get("format")
    kind = {2: "blocks", "journal": "journal"}.get(fmt, "sweep")
    identity = meta.get("data" if kind == "blocks" else "spec", {})
    cells = meta.get("cells", [])
    if kind == "sweep":
        per_cell = int(identity.get("trials", 0))
        trials = sum(per_cell for _distance, _k in cells)
    else:
        trials = sum(int(count) for _distance, _k, count in cells)
    return {
        "kind": kind,
        "algorithm": identity.get("algorithm", "?"),
        "cells": len(cells),
        "trials": trials,
    }


def _atomic_savez(path: str, meta: Dict, arrays: Dict[str, np.ndarray]) -> bool:
    """Write an npz with a JSON ``meta`` record via temp file + rename."""
    crash_before_rename = False
    if FAULTS.enabled:
        rule = FAULTS.check("cache.write")
        if rule is not None:
            if rule.mode != "crash":
                return False  # the ENOSPC/EIO class: write just fails
            # The kill-between-write-and-rename class: the temp file is
            # deliberately orphaned, exactly what a dead writer leaves
            # for clean_stale_files to reclaim.
            crash_before_rename = True
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=TMP_PREFIX, suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(
                    handle, meta=np.asarray(json.dumps(meta)), **arrays
                )
            if crash_before_rename:
                return False
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class CacheEntry:
    """One cache file as seen by ``repro-ants cache list``."""

    path: str
    kind: str  # "sweep" (v1), "blocks" (v2), "journal", or "unreadable"
    algorithm: str
    cells: int
    trials: int  # total trials stored across cells
    size_bytes: int
    mtime: float


def _inspect_entry(path: str) -> Optional[CacheEntry]:
    """Describe one entry from its archive's ``meta`` member alone.

    Only the metadata is decompressed, never the time arrays.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None  # vanished between listdir and stat; best-effort
    name = os.path.basename(path)
    algorithm = "?"
    parts = name[:-len(".npz")].split("_")
    if len(parts) >= 3:
        algorithm = "_".join(parts[1:-1])
    try:
        # Listing reads without the fault seam and never quarantines:
        # it reports what is on disk, broken entries included.
        record = _parse_archive(path, lambda meta, _: _manifest_record(meta))
    except (OSError, AttributeError) + _BROKEN:
        return CacheEntry(
            path=path, kind="unreadable", algorithm=algorithm, cells=0,
            trials=0, size_bytes=stat.st_size, mtime=stat.st_mtime,
        )
    if record["algorithm"] == "?":
        record["algorithm"] = algorithm
    return CacheEntry(
        path=path, kind=record["kind"], algorithm=record["algorithm"],
        cells=record["cells"], trials=record["trials"],
        size_bytes=stat.st_size, mtime=stat.st_mtime,
    )


def list_entries(cache_dir: Optional[str] = None) -> List[CacheEntry]:
    """All cache entries in a directory, newest first."""
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    entries = [
        entry
        for name in names
        if name.endswith(".npz") and not name.startswith(".")
        for entry in [_inspect_entry(os.path.join(directory, name))]
        if entry is not None
    ]
    entries.sort(key=lambda e: e.mtime, reverse=True)
    return entries


def prune_entries(
    cache_dir: Optional[str] = None,
    *,
    older_than_days: float = 0.0,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> List[CacheEntry]:
    """Delete (or, with ``dry_run``, just report) entries older than a cutoff.

    ``older_than_days=0`` prunes everything.  Returns the pruned
    entries.  Droppings that are not entries — stale temp files, old
    quarantines and sidecars — are :func:`clean_stale_files`' job;
    ``repro-ants cache prune`` runs both.
    """
    if older_than_days < 0:
        raise ValueError(f"older_than_days must be >= 0, got {older_than_days}")
    cutoff = (now if now is not None else time.time()) - older_than_days * 86400
    pruned = []
    for entry in list_entries(cache_dir):
        if entry.mtime <= cutoff:
            if not dry_run:
                try:
                    os.unlink(entry.path)
                except OSError:
                    continue
            pruned.append(entry)
    return pruned
