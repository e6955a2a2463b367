"""Sweep subsystem: declarative, cached, batched parameter sweeps.

The paper's questions are all of the form "how does the find time behave
as a function of ``D`` and ``k``?", so the natural unit of work is a grid
of worlds, not a single treasure.  This package turns that grid into one
fast primitive:

* :class:`SweepSpec` — a serialisable description of an
  ``algorithm x D x k x trials`` sweep, optionally carrying a
  :class:`repro.stats.BudgetPolicy` for adaptive per-cell trial
  allocation (see :mod:`repro.sweep.spec`);
* :func:`run_sweep` — the driver: consults the on-disk cache, resolves
  fixed sweeps with batched engine calls per ``k``-group chunk and
  adaptive sweeps with block-granular work stealing, and reports
  per-cell :class:`ProgressEvent`s (see :mod:`repro.sweep.runner`);
* the execution backends — in-process serial, a persistent process
  pool with crash recovery, and the virtual-clock scheduling model —
  live in :mod:`repro.sweep.executor`; one :class:`SweepExecutor` can
  be shared across many sweeps;
* the cache — v1 full-matrix entries plus the v2 append-only block
  store — lives in :mod:`repro.sweep.cache`.

Experiments and the ``repro-ants sweep``/``cache`` CLI are thin
consumers of this package; DESIGN.md §7 documents the adaptive layer
and §8 the executor architecture.
"""

from ..stats import BudgetPolicy
from .cache import (
    CacheEntry,
    append_blocks,
    block_store_path,
    cache_path,
    default_cache_dir,
    list_entries,
    load_blocks,
    load_result,
    prune_entries,
    save_blocks,
    save_result,
)
from .executor import (
    ProcessExecutor,
    SerialExecutor,
    SweepExecutor,
    VirtualExecutor,
    ensure_executor,
    make_executor,
    resolve_workers,
)
from .runner import (
    CellResult,
    ProgressEvent,
    SweepResult,
    reference_cell_times,
    run_sweep,
)
from .spec import (
    ALGORITHM_BUILDERS,
    SweepCell,
    SweepGroup,
    SweepSpec,
    block_trials,
    build_algorithm,
    completed_trials,
    group_chunks,
    register_algorithm,
    whole_blocks,
)

__all__ = [
    "ALGORITHM_BUILDERS",
    "BudgetPolicy",
    "CacheEntry",
    "CellResult",
    "ProcessExecutor",
    "ProgressEvent",
    "SerialExecutor",
    "SweepCell",
    "SweepExecutor",
    "SweepGroup",
    "SweepResult",
    "SweepSpec",
    "VirtualExecutor",
    "append_blocks",
    "block_store_path",
    "block_trials",
    "build_algorithm",
    "cache_path",
    "completed_trials",
    "default_cache_dir",
    "ensure_executor",
    "group_chunks",
    "list_entries",
    "load_blocks",
    "load_result",
    "make_executor",
    "prune_entries",
    "reference_cell_times",
    "register_algorithm",
    "resolve_workers",
    "run_sweep",
    "save_blocks",
    "save_result",
    "whole_blocks",
]
