"""E6 — Theorem 5.1: the harmonic algorithm.

Paper prediction: for ``delta in (0, 0.8]``, if ``k > alpha * D^delta``
then with probability at least ``1 - eps`` the one-shot, loop-free
harmonic algorithm finds the treasure within ``O(D + D^(2+delta)/k)``.

Three tables:

* **success probability vs k** at fixed ``D``: a sigmoid in ``log k``
  crossing towards 1 around ``k ~ D^delta``, bounded below by the proof's
  ``1 - exp(-c k / (12 D^delta))`` envelope;
* **conditional running time** (given success) against the
  ``D + D^(2+delta)/k`` envelope: a bounded ratio;
* **delta sweep**: larger ``delta`` needs more agents (``alpha D^delta``
  grows) but yields shorter conditional times at large ``k``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..analysis.theory import harmonic_failure_bound, harmonic_time_bound
from ..sim.rng import derive_seed
from ..stats import wilson_interval
from ..sweep import SweepSpec, run_sweep
from .config import scale
from .io import ResultTable

__all__ = ["run"]

EXPERIMENT_ID = "E6"
TITLE = "E6 (Thm 5.1): the 3-step harmonic algorithm"

DELTA = 0.5
DELTAS = (0.2, 0.5, 0.8)


def run(
    quick: bool = True,
    seed: int | None = None,
    workers: int = 0,
    cache: bool = True,
    executor=None,
) -> List[ResultTable]:
    from ..sweep import ensure_executor

    cfg = scale(quick)
    seed = cfg.seed if seed is None else seed
    trials = cfg.trials
    distance = 32 if quick else 64

    # --- success probability and conditional time vs k -------------------
    # The sigmoid saturates around k ~ alpha * D^delta (several hundred at
    # D=32), so the sweep must extend well past it.
    ks = (
        [2**i for i in range(0, 12)] if quick else [2**i for i in range(0, 14)]
    )
    # "Success" in Theorem 5.1 means finding within O(D + D^(2+delta)/k);
    # we instantiate the O() as HORIZON_FACTOR x envelope.  Without the
    # horizon, one-shot monster excursions (huge zipf radii whose spirals
    # eventually sweep everything) would count as successes at absurd times.
    HORIZON_FACTOR = 10.0
    success = ResultTable(
        title=f"{TITLE}: success probability vs k (D={distance}, delta={DELTA})",
        columns=[
            "k",
            "success_any",
            "success_within_bound",
            "wilson_lo",
            "theory_lower_bound",
            "cond_mean_time",
            "time_envelope",
            "time_ratio",
        ],
    )
    success_spec = SweepSpec(
        algorithm="harmonic",
        params={"delta": DELTA},
        distances=(distance,),
        ks=tuple(ks),
        trials=trials,
        placement="offaxis",
        seed=derive_seed(seed, 0),
    )
    # Both tables' sweeps share one executor: the pool spawned for the
    # success sweep stays warm for the delta sweep below.
    with ensure_executor(executor, workers=workers) as shared:
        success_result = run_sweep(
            success_spec, cache=cache, executor=shared
        )
        delta_times = {}
        for index, delta in enumerate(DELTAS):
            k_fixed_early = 64 if quick else 128
            delta_spec = SweepSpec(
                algorithm="harmonic",
                params={"delta": delta},
                distances=(distance,),
                ks=(k_fixed_early,),
                trials=trials,
                placement="offaxis",
                seed=derive_seed(seed, 1, index),
            )
            delta_times[delta] = (
                run_sweep(delta_spec, cache=cache, executor=shared)
                .cell(distance, k_fixed_early)
                .times
            )
    for k in ks:
        envelope = harmonic_time_bound(distance, k, DELTA)
        horizon = HORIZON_FACTOR * envelope
        times = success_result.cell(distance, k).times
        found_any = np.isfinite(times)
        found = found_any & (times <= horizon)
        rate = float(found.mean())
        lo, _ = wilson_interval(int(found.sum()), trials)
        cond_mean = float(times[found].mean()) if found.any() else float("inf")
        success.add_row(
            k=k,
            success_any=float(found_any.mean()),
            success_within_bound=rate,
            wilson_lo=lo,
            theory_lower_bound=1.0 - harmonic_failure_bound(k, distance, DELTA),
            cond_mean_time=cond_mean,
            time_envelope=envelope,
            time_ratio=cond_mean / envelope if found.any() else float("inf"),
        )
    success.add_note(
        "theory_lower_bound = 1 - exp(-c k / (12 D^delta)) from the proof; "
        "measured success_within_bound must dominate it"
    )
    success.add_note(
        f"success_within_bound uses horizon = {HORIZON_FACTOR:g} x envelope"
    )

    # --- delta sweep ------------------------------------------------------
    sweep = ResultTable(
        title="E6b: delta sweep (one-shot, fixed k)",
        columns=["delta", "k", "success_rate", "cond_mean_time", "time_envelope"],
    )
    k_fixed = 64 if quick else 128
    for delta in DELTAS:
        envelope = harmonic_time_bound(distance, k_fixed, delta)
        times = delta_times[delta]
        found = np.isfinite(times) & (times <= HORIZON_FACTOR * envelope)
        sweep.add_row(
            delta=delta,
            k=k_fixed,
            success_rate=float(found.mean()),
            cond_mean_time=float(times[found].mean()) if found.any() else float("inf"),
            time_envelope=envelope,
        )
    sweep.add_note("smaller delta reaches farther per agent; larger delta is")
    sweep.add_note("faster near home but needs k > alpha*D^delta agents")
    return [success, sweep]
