"""Byte-level pins of the walker engine's and the step engine's output.

The parity suites compare engines with each other in distribution and
pin a few entry points against each other bitwise.  A change that moves
an engine's bytes while keeping its distribution passes them.  This file
pins the bytes themselves: SHA-256 digests of a fixed battery of walker
and step-engine runs, stored in ``tests/golden/engine_digests.json``.

The battery:

* **walkers** — ``RandomWalker``, ``BiasedWalker`` and ``LevyWalker`` x
  5 scenarios (none, lossy, crash, speed + stagger, all) x 5 worlds
  (static, two static targets, lazy walk, drift + lossy world detection,
  geometric arrival) x start delays in {none, ``(0, 5, 11)``}, at k = 3
  with a small explicit ``chunk``.  One digest per (walker, world,
  scenario) group hashes the float64 bytes of both delay settings.
* **step engine** — 4 algorithms x 2 seeds of ``run_search`` on a static
  world under 5 scenarios with pruning on and off, with explicit start
  delays, on 4 dynamic worlds under the 4 scenarios the step engine
  runs them with, plus ``first_visit_times``.  A run hashes its
  ``Result`` and every agent trace; one digest per (algorithm, part).

NumPy does not promise ``Generator`` streams across versions, so the
fixture records the NumPy version it was made with and the test skips
on a different ``major.minor``.  After an intended change of an engine's
output, regenerate with

    PYTHONPATH=src python tests/test_engine_digests.py --regen

and say why in the change log.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec
from repro.sim.engine import first_visit_times, run_search
from repro.sim.walkers import BiasedWalker, LevyWalker, RandomWalker
from repro.sim.world import WorldSpec, place_targets, place_treasure
from repro.sweep.spec import build_algorithm

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "engine_digests.json")
SCENARIOS = {
    "none": None,
    "lossy": ScenarioSpec(detection_prob=0.6),
    "crash": ScenarioSpec(crash_hazard=0.004),
    "speed_stagger": ScenarioSpec(speed_spread=0.5, start_stagger=7.0),
    "all": ScenarioSpec(
        crash_hazard=0.002, speed_spread=0.4, start_stagger=5.0,
        detection_prob=0.7,
    ),
}
#: The dynamic worlds; ``static`` is the paper's model (no world spec).
WORLDS = {
    "static": None,
    "two_targets": WorldSpec(n_targets=2),
    "walk": WorldSpec(motion="walk", motion_rate=0.3),
    "drift_lossy": WorldSpec(
        motion="drift", motion_rate=0.05, detection_prob=0.7
    ),
    "arrival": WorldSpec(arrival="geometric", arrival_hazard=0.02),
}
WALKERS = {
    "random": RandomWalker(),
    "biased": BiasedWalker(0.8),
    "levy": LevyWalker(2.0, max_segment=64),
}
DELAYS = (None, (0.0, 5.0, 11.0))
K = 3
DISTANCE = 3
WALKER_TRIALS = 24
WALKER_HORIZON = 240.0
CHUNK = 7
STEP_ALGORITHMS = ("uniform", "nonuniform", "harmonic", "random_walk")
STEP_SEEDS = (11, 12)
STEP_HORIZON = 600


def _sha(chunks):
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()


def _world_arg(spec):
    """A one-target world as a ``World``; more targets as an array."""
    if spec is None or spec.n_targets == 1:
        return place_treasure(DISTANCE, "offaxis")
    return place_targets(DISTANCE, "offaxis", spec.n_targets, seed=5)


def _walker_group(walker, world, scenario, seed):
    out = []
    for index, delays in enumerate(DELAYS):
        times = walker.find_times(
            _world_arg(WORLDS[world]), K, WALKER_TRIALS, seed + index,
            horizon=WALKER_HORIZON, chunk=CHUNK,
            scenario=SCENARIOS[scenario], start_delays=delays,
            world_spec=WORLDS[world],
        )
        out.append(np.ascontiguousarray(times, dtype=np.float64).tobytes())
    return out


def _run_bytes(run):
    r = run.result
    record = [r.time, r.found, r.finder, r.steps_simulated]
    record += [[t.agent, t.find_time, t.steps] for t in run.traces]
    return json.dumps(record).encode()


def _step_parts(algorithm, seed):
    """``{part: [bytes, ...]}`` for one algorithm and seed."""
    strategy = build_algorithm(algorithm, K, {})
    step = getattr(strategy, "step_algorithm", None)
    if step is not None:
        strategy = step()
    static = place_treasure(DISTANCE, "offaxis")
    parts = {"static": [], "delays": [], "dynamic": [], "visits": []}
    for scenario in SCENARIOS.values():
        for prune in (True, False):
            parts["static"].append(_run_bytes(run_search(
                strategy, static, K, seed, horizon=STEP_HORIZON,
                prune=prune, scenario=scenario,
            )))
    for scenario in (None, SCENARIOS["speed_stagger"]):
        parts["delays"].append(_run_bytes(run_search(
            strategy, static, K, seed, horizon=STEP_HORIZON,
            scenario=scenario, start_delays=DELAYS[1],
        )))
    for world in ("two_targets", "walk", "drift_lossy", "arrival"):
        spec = WORLDS[world]
        for name in ("none", "lossy", "crash"):
            parts["dynamic"].append(_run_bytes(run_search(
                strategy, _world_arg(spec), K, seed, horizon=STEP_HORIZON,
                scenario=SCENARIOS[name], world_spec=spec,
            )))
        parts["dynamic"].append(_run_bytes(run_search(
            strategy, _world_arg(spec), K, seed, horizon=STEP_HORIZON,
            prune=False, scenario=ScenarioSpec(
                crash_hazard=0.002, detection_prob=0.7
            ), world_spec=spec,
        )))
    maps = first_visit_times(strategy, static, K, seed, 150)
    parts["visits"].append(json.dumps(
        [sorted([x, y, t] for (x, y), t in m.items()) for m in maps]
    ).encode())
    return parts


def battery():
    """``{group: digest}`` plus the number of runs behind them."""
    digests = {}
    count = 0
    for walker, engine in WALKERS.items():
        for w_index, world in enumerate(WORLDS):
            for s_index, scenario in enumerate(SCENARIOS):
                seed = 100 * w_index + 10 * s_index + 1
                group = _walker_group(engine, world, scenario, seed)
                digests[f"walker/{walker}/{world}/{scenario}"] = _sha(group)
                count += len(group)
    for algorithm in STEP_ALGORITHMS:
        merged = {}
        for seed in STEP_SEEDS:
            for part, chunks in _step_parts(algorithm, seed).items():
                merged.setdefault(part, []).extend(chunks)
        for part, chunks in merged.items():
            digests[f"step/{algorithm}/{part}"] = _sha(chunks)
            count += len(chunks)
    return digests, count


def _major_minor(version):
    return tuple(version.split(".")[:2])


def regenerate():
    digests, count = battery()
    with open(FIXTURE, "w") as handle:
        json.dump(
            {"numpy": np.__version__, "runs": count, "digests": digests},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {FIXTURE}: {len(digests)} digests over {count} runs")


def test_engine_bytes_match_digests():
    with open(FIXTURE) as handle:
        stored = json.load(handle)
    if _major_minor(stored["numpy"]) != _major_minor(np.__version__):
        pytest.skip(
            f"digests were made with NumPy {stored['numpy']}; Generator "
            f"streams may differ under NumPy {np.__version__}"
        )
    digests, count = battery()
    assert count == stored["runs"]
    assert sorted(digests) == sorted(stored["digests"])
    changed = sorted(
        group for group, digest in digests.items()
        if stored["digests"][group] != digest
    )
    assert not changed, f"engine output changed in: {changed}"


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        print("usage: PYTHONPATH=src python tests/test_engine_digests.py --regen")
