"""Streaming statistics and trial-budget policies (the precision layer).

The paper's results are statements about *expectations and success
probabilities* of find times, so the right question for a sweep cell is
never "did we run 60 trials?" but "do we know the mean to the precision
the claim needs?".  This package is the program's one statistics layer
and supplies the two halves of that question:

* :mod:`repro.stats.accumulators` — mergeable streaming accumulators
  (Welford moments, Wilson success counts) and the censoring-aware
  :class:`FindTimeAccumulator` / :class:`FindTimeSummary` pair that every
  sweep cell, CLI table and adaptive stopping decision reads;
* :mod:`repro.stats.policy` — the serialisable :class:`BudgetPolicy`
  (``fixed`` / ``target_rel_ci`` / ``wall``) that
  :class:`repro.sweep.spec.SweepSpec` carries and the incremental runner
  evaluates per cell.

The package is deliberately dependency-light (NumPy only; SciPy is used
opportunistically for normal quantiles) and imports nothing from the
simulation or sweep layers, so accumulators are usable anywhere — worker
processes, analysis notebooks, the CLI.
"""

from .accumulators import (
    FindTimeAccumulator,
    FindTimeSummary,
    StreamingMoments,
    SuccessCounter,
    normal_quantile,
    summarize_times,
    wilson_interval,
)
from .policy import BudgetPolicy

__all__ = [
    "BudgetPolicy",
    "FindTimeAccumulator",
    "FindTimeSummary",
    "StreamingMoments",
    "SuccessCounter",
    "normal_quantile",
    "summarize_times",
    "wilson_interval",
]
