"""Byte-level pins of the static excursion kernel's output.

The bitwise suites compare the kernel's entry points with each other
(stacked ≡ per-block, batch with one world ≡ scalar).  Those are all the
same kernel, so a change that shifts every entry point's bytes together
would pass them.  This file pins the bytes themselves: SHA-256 digests of
a fixed battery of ``simulate_find_times_batch`` calls and mixed
``simulate_find_times_stacked`` packs, stored in
``tests/golden/excursion_digests.json``.

The battery is 4 algorithms x 6 scenarios x W in {1, 5} worlds x
horizon in {None, finite} batch calls at k = 4, plus 20 mixed packs of
block tasks.  Batch calls keep one digest per (algorithm, scenario)
group; packs keep one digest each.  A digest hashes the raw float64
bytes of the find times in call order, so it is independent of the
result's array shape.

NumPy does not promise ``Generator`` streams across versions, so the
fixture records the NumPy version it was made with and the test skips
on a different ``major.minor``.  After an intended change of the
kernel's output, regenerate with

    PYTHONPATH=src python tests/test_excursion_digests.py --regen

and say why in the change log.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec
from repro.sim.events import (
    StackedTask,
    simulate_find_times_batch,
    simulate_find_times_stacked,
)
from repro.sim.world import place_treasure
from repro.sweep.spec import build_algorithm

FIXTURE = os.path.join(
    os.path.dirname(__file__), "golden", "excursion_digests.json"
)
ALGORITHMS = ("uniform", "nonuniform", "nonuniform_scaled", "harmonic")
SCENARIOS = {
    "none": None,
    "crash": ScenarioSpec(crash_hazard=0.002),
    "speed": ScenarioSpec(speed_spread=0.6),
    "stagger": ScenarioSpec(start_stagger=25.0),
    "lossy": ScenarioSpec(detection_prob=0.6),
    "all": ScenarioSpec(
        crash_hazard=0.001, speed_spread=0.4, start_stagger=10.0,
        detection_prob=0.8,
    ),
}
#: World sets of the batch calls; the five-world set repeats a world.
WORLD_SETS = ((9,), (3, 6, 6, 10, 14))
HORIZONS = (None, 3000.0)
K = 4
TRIALS = 40
PACKS = 20


def _digest(arrays):
    sha = hashlib.sha256()
    for times in arrays:
        sha.update(np.ascontiguousarray(times, dtype=np.float64).tobytes())
    return sha.hexdigest()


def _batch_group(algorithm, scenario):
    strategy = build_algorithm(algorithm, K, {})
    out = []
    for distances in WORLD_SETS:
        worlds = [place_treasure(d, "offaxis", seed=d) for d in distances]
        for horizon in HORIZONS:
            out.append(simulate_find_times_batch(
                strategy, worlds, K, TRIALS, seed=len(out) + 1,
                horizon=horizon, scenario=SCENARIOS[scenario],
            ))
    return out


def _pack_tasks(index):
    """Pack ``index``: 1-6 block tasks of mixed algorithm, k, scenario
    and horizon, chosen by a generator seeded with the index."""
    rng = np.random.default_rng(index)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    tasks = []
    for _ in range(int(rng.integers(1, 7))):
        k = pick((1, 2, 4, 8))
        distance = pick((2, 5, 8, 16, 24))
        tasks.append(StackedTask.for_block(
            build_algorithm(pick(ALGORITHMS), k, {}),
            place_treasure(distance, "offaxis", seed=distance),
            k,
            pick((1, 7, 32)),
            1000 + index,
            distance=distance,
            block=int(rng.integers(5)),
            horizon=pick(HORIZONS),
            scenario=SCENARIOS[pick(sorted(SCENARIOS))],
        ))
    return tasks


def battery():
    """``{group: digest}`` plus the number of simulations behind them."""
    digests = {}
    count = 0
    for algorithm in ALGORITHMS:
        for scenario in SCENARIOS:
            group = _batch_group(algorithm, scenario)
            digests[f"batch/{algorithm}/{scenario}"] = _digest(group)
            count += len(group)
    for index in range(PACKS):
        tasks = _pack_tasks(index)
        digests[f"pack/{index:02d}"] = _digest(
            simulate_find_times_stacked(tasks)
        )
        count += len(tasks)
    return digests, count


def _major_minor(version):
    return tuple(version.split(".")[:2])


def regenerate():
    digests, count = battery()
    with open(FIXTURE, "w") as handle:
        json.dump(
            {"numpy": np.__version__, "simulations": count,
             "digests": digests},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {FIXTURE}: {len(digests)} digests over {count} simulations")


def test_kernel_bytes_match_digests():
    with open(FIXTURE) as handle:
        stored = json.load(handle)
    if _major_minor(stored["numpy"]) != _major_minor(np.__version__):
        pytest.skip(
            f"digests were made with NumPy {stored['numpy']}; Generator "
            f"streams may differ under NumPy {np.__version__}"
        )
    digests, count = battery()
    assert count == stored["simulations"]
    changed = sorted(
        group for group, digest in digests.items()
        if stored["digests"].get(group) != digest
    )
    assert sorted(digests) == sorted(stored["digests"])
    assert not changed, f"excursion kernel output changed in: {changed}"


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        print("usage: PYTHONPATH=src python tests/test_excursion_digests.py --regen")
