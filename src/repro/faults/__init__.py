"""``repro.faults``: deterministic fault injection and graceful retry.

The harness-side mirror of the paper's robustness claim (DESIGN.md §13):
searchers make progress when peers fail, and the sweep stack must make
progress when disks and pools fail.  Three pieces live here:

* :class:`FaultPlan` / :class:`FaultRule` — a declarative, serialisable
  description of *which* instrumented seams fail, *when*, and *how*.
  Plans are scheduled from a dedicated registered RNG stream
  (``FAULT_STREAM``) keyed by the plan's own seed, so every chaos run is
  exactly reproducible — and the plan is hashed *outside* spec identity,
  so faulted and unfaulted runs share cache entries.
* :data:`FAULTS` — the process singleton every seam consults, with the
  same one-attribute-read disabled path as ``repro.obs.BUS``: when no
  plan is active (the production default), a seam costs exactly one
  ``FAULTS.enabled`` read.  Activation comes from the
  ``REPRO_FAULT_PLAN`` environment variable, the ``--fault-plan`` CLI
  flag, or :func:`activate` / :func:`fault_plan` programmatically.
* :func:`backoff_delays` — the jittered, capped backoff schedule the
  cache lock waits on.

Every recoverable fault class is covered by the chaos parity property
tests (``tests/test_faults.py``): a seeded plan run completes bitwise
identical to the unfaulted run on every executor backend.
"""

from .plan import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FAULT_STREAM,
    FAULTS,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    activate,
    deactivate,
    ensure_env_plan,
    fault_plan,
    load_plan,
)
from .retry import backoff_delays

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FAULT_STREAM",
    "FAULTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "activate",
    "deactivate",
    "ensure_env_plan",
    "fault_plan",
    "load_plan",
    "backoff_delays",
]
