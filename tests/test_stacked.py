"""The stacked excursion kernel and the sweep runner's block packs.

``simulate_find_times_stacked`` runs many static-world simulations as one
NumPy pass per phase.  Its contract is per task: each task's times equal
its lone call bit for bit, whatever else shares the pass — a one-world
block task's row equals ``simulate_find_times_block``, and a multi-world
task's matrix equals ``simulate_find_times_batch`` over the same worlds.
``_execute_pack`` builds on it, so a pack sweep must
equal the per-block reference on every backend, traced or not, and
under injected worker kills.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import ExcursionFamily, UniformBallFamily
from repro.algorithms.harmonic import HarmonicSearch, PowerLawRingFamily
from repro.core.geometry import ball_cells, ball_cells_from_index, ball_size
from repro.faults import FaultPlan, FaultRule, deactivate, fault_plan
from repro.obs import MemorySink, tracing
from repro.scenarios import ScenarioSpec
from repro.sim.events import (
    StackedTask,
    simulate_find_times,
    simulate_find_times_batch,
    simulate_find_times_block,
    simulate_find_times_stacked,
)
from repro.sim.rng import derive_seed
from repro.sim.walkers import walker_find_times_block
from repro.sim.world import World, WorldSpec, place_treasure
from repro.stats import BudgetPolicy
from repro.sweep import SweepSpec, VirtualExecutor, run_sweep
from repro.sweep.executor import CRASH_ENV
from repro.sweep.runner import (
    _cell_world,
    _execute_block,
    _execute_pack,
    reference_cell_times,
)
from repro.sweep.spec import block_trials, build_algorithm

ALGORITHMS = ("uniform", "nonuniform", "nonuniform_scaled", "harmonic")

SCENARIOS = {
    "crash": ScenarioSpec(crash_hazard=0.002),
    "speed": ScenarioSpec(speed_spread=0.6),
    "stagger": ScenarioSpec(start_stagger=25.0),
    "lossy": ScenarioSpec(detection_prob=0.6),
    "all": ScenarioSpec(
        crash_hazard=0.001, speed_spread=0.4, start_stagger=10.0,
        detection_prob=0.8,
    ),
}

#: One task of a pack: (distance, k, block index, trials, world count).
blocks_st = st.tuples(
    st.sampled_from((2, 5, 8, 16, 24)),
    st.sampled_from((1, 2, 4, 8)),
    st.integers(0, 4),
    st.sampled_from((1, 7, 32)),
    st.sampled_from((1, 1, 2, 5)),
)


def _worlds(distance, n_worlds):
    """``n_worlds`` treasures around ``distance``; any two or more repeat one."""
    distances = (distance, distance, distance + 3, 2 * distance, 1)
    return [
        place_treasure(d, "offaxis", seed=d) for d in distances[:n_worlds]
    ]


def _pairs(algorithm, blocks, seed, horizon=None, scenario=None):
    """(stacked task, lone-call reference) for each task of a pack.

    One-world tasks are sweep blocks, checked against
    ``simulate_find_times_block``; multi-world tasks are checked against
    ``simulate_find_times_batch`` with the same seed.
    """
    pairs = []
    for distance, k, block, trials, *n_worlds in blocks:
        n_worlds = n_worlds[0] if n_worlds else 1
        strategy = build_algorithm(algorithm, k, {})
        if n_worlds == 1:
            world = place_treasure(distance, "offaxis", seed=distance)
            kwargs = dict(
                distance=distance, block=block, horizon=horizon,
                scenario=scenario,
            )
            task = StackedTask.for_block(
                strategy, world, k, trials, seed, **kwargs
            )
            reference = simulate_find_times_block(
                strategy, world, k, trials, seed, **kwargs
            )[None, :]
        else:
            worlds = _worlds(distance, n_worlds)
            task_seed = derive_seed(seed, distance, k, block)
            task = StackedTask(
                strategy, worlds, k, trials, task_seed, horizon=horizon,
                scenario=scenario,
            )
            reference = simulate_find_times_batch(
                strategy, worlds, k, trials, task_seed, horizon=horizon,
                scenario=scenario,
            )
        pairs.append((task, reference))
    return pairs


def assert_stacked_matches(pairs):
    tasks = [task for task, _ in pairs]
    out = simulate_find_times_stacked(tasks)
    assert len(out) == len(pairs)
    for got, (_, reference) in zip(out, pairs):
        assert got.dtype == reference.dtype
        assert got.shape == reference.shape
        assert np.array_equal(got, reference)


class TestStackedKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        blocks=st.lists(blocks_st, min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_task_bitwise_across_algorithms(self, algorithm, blocks, seed):
        assert_stacked_matches(_pairs(algorithm, blocks, seed))

    @pytest.mark.parametrize("knob", sorted(SCENARIOS))
    @settings(max_examples=8, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        blocks=st.lists(blocks_st, min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_per_task_bitwise_under_scenarios(
        self, knob, algorithm, blocks, seed
    ):
        pairs = _pairs(
            algorithm, blocks, seed, horizon=5000.0,
            scenario=SCENARIOS[knob],
        )
        assert_stacked_matches(pairs)

    @pytest.mark.parametrize("horizon", [None, 4000.0])
    @pytest.mark.parametrize("knob", [None, *sorted(SCENARIOS)])
    def test_multi_world_tasks_in_mixed_packs(self, knob, horizon):
        # Worlds of different tasks never mix: one- and multi-world
        # tasks (with repeated worlds) of several algorithms share the
        # pass, and each equals its lone call.
        scenario = SCENARIOS[knob] if knob else None
        pairs = []
        for index, (algorithm, n_worlds) in enumerate([
            ("nonuniform", 5), ("uniform", 1), ("harmonic", 2),
            ("nonuniform_scaled", 5), ("nonuniform", 2), ("uniform", 1),
        ]):
            pairs += _pairs(
                algorithm,
                [(6 + 2 * index, 1 + index % 4, index % 3, 16, n_worlds)],
                seed=index, horizon=horizon, scenario=scenario,
            )
        assert_stacked_matches(pairs)
        assert [len(task.worlds) for task, _ in pairs] == [5, 1, 2, 5, 2, 1]

    def test_mixed_scenarios_and_algorithms_in_one_pass(self):
        # Lossy next to perfect detection, speeds next to unit speeds,
        # and two family types (ball and ring draws) in one union.
        def pairs():
            out = []
            for index, (algorithm, knob) in enumerate([
                ("nonuniform", None), ("harmonic", "lossy"),
                ("uniform", "speed"), ("nonuniform", "crash"),
                ("harmonic", None), ("nonuniform_scaled", "all"),
            ]):
                scenario = SCENARIOS[knob] if knob else None
                out += _pairs(
                    algorithm, [(8 + index, 1 + index % 3, index % 4, 32)],
                    seed=index, horizon=4000.0, scenario=scenario,
                )
            return out

        assert_stacked_matches(pairs())
        # Order inside the pass is irrelevant too.  (Block tasks hold
        # live generators, so each pass gets fresh ones.)
        assert_stacked_matches(pairs()[::-1])

    def test_ending_family_stream_drops_out(self):
        # One-shot harmonic search: the stream ends after one phase, so
        # trials the single excursion missed stay at inf while the other
        # tasks keep running.
        pairs = _pairs("harmonic", [(24, 2, 0, 32), (24, 1, 1, 32)], seed=3)
        pairs += _pairs("nonuniform", [(16, 2, 0, 32)], seed=3)
        assert_stacked_matches(pairs)
        assert np.isinf(pairs[0][1]).any()
        assert np.isfinite(pairs[2][1]).all()

    def test_horizon_censoring_per_task(self):
        pairs = _pairs("uniform", [(16, 1, 0, 32)], seed=5, horizon=150.0)
        pairs += _pairs("uniform", [(16, 1, 1, 32)], seed=5, horizon=None)
        assert_stacked_matches(pairs)
        assert np.isinf(pairs[0][1]).any()
        assert np.isfinite(pairs[1][1]).all()

    def test_far_offsets_take_the_float_path(self):
        # A treasure beyond the int64-safe offset forces _hit_times'
        # float branch for its draws; a near task shares the union.
        far = World(treasure=(2**31 + 3, -7))
        strategy = HarmonicSearch(delta=0.2)
        far_task = StackedTask.for_block(
            strategy, far, 4, 32, 9, distance=1, block=0
        )
        far_ref = simulate_find_times_block(
            strategy, far, 4, 32, 9, distance=1, block=0
        )[None, :]
        pairs = [(far_task, far_ref)]
        pairs += _pairs("harmonic", [(8, 4, 2, 32)], seed=9)
        assert_stacked_matches(pairs)

    def test_start_delays(self):
        algorithm = build_algorithm("nonuniform", 3, {})
        world = place_treasure(12, "offaxis", seed=1)
        delays = np.array([0.0, 7.0, 40.0])
        got = simulate_find_times_stacked([
            StackedTask(algorithm, [world], 3, 16, 4, start_delays=delays),
            StackedTask(algorithm, [world], 3, 16, 5),
        ])
        assert np.array_equal(
            got[0][0],
            simulate_find_times(
                algorithm, world, 3, 16, 4, start_delays=delays
            ),
        )
        assert np.array_equal(
            got[1][0], simulate_find_times(algorithm, world, 3, 16, 5)
        )

    def test_validation_and_limits(self):
        algorithm = build_algorithm("nonuniform", 2, {})
        world = place_treasure(8, "offaxis", seed=0)
        assert simulate_find_times_stacked([]) == []
        with pytest.raises(ValueError, match="k must be"):
            simulate_find_times_stacked([StackedTask(algorithm, [world], 0, 4)])
        with pytest.raises(ValueError, match="trials must be"):
            simulate_find_times_stacked([StackedTask(algorithm, [world], 2, 0)])
        with pytest.raises(ValueError, match="non-negative"):
            simulate_find_times_stacked([
                StackedTask(
                    algorithm, [world], 2, 4,
                    start_delays=np.array([-1.0, 0.0]),
                )
            ])
        with pytest.raises(ValueError, match="non-empty"):
            simulate_find_times_stacked([StackedTask(algorithm, [], 2, 4)])
        with pytest.raises(RuntimeError, match="max_phases"):
            simulate_find_times_stacked(
                [StackedTask(build_algorithm("uniform", 1, {}),
                             [place_treasure(64, "offaxis", seed=0)], 1, 8, 0)],
                max_phases=2,
            )
        with pytest.raises(ValueError, match="block index"):
            StackedTask.for_block(algorithm, world, 2, 4, 0, distance=8, block=-1)


class TestSamplingSplit:
    @settings(max_examples=40, deadline=None)
    @given(radius=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_ball_draw_then_resolve_equals_sample(self, radius, seed):
        family = UniformBallFamily(radius, budget=5)
        drawn = family.resolve(family.draw(np.random.default_rng(seed), 64))
        sampled = family.sample(np.random.default_rng(seed), 64)
        for a, b in zip(drawn, sampled):
            assert np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.1, 0.8), seed=st.integers(0, 2**32 - 1))
    def test_ring_draw_then_resolve_equals_sample(self, delta, seed):
        family = PowerLawRingFamily(delta)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        drawn = family.resolve(family.draw(rng_a, 64))
        sampled = family.sample(rng_b, 64)
        for a, b in zip(drawn, sampled):
            assert np.array_equal(a, b)
        # Same RNG consumption, so the streams stay aligned afterwards.
        assert rng_a.random() == rng_b.random()

    def test_default_split_for_custom_families(self):
        class Fixed(ExcursionFamily):
            def sample(self, rng, size):
                x = rng.integers(1, 4, size=size)
                return x, -x, np.full(size, 3, dtype=np.int64)

        family = Fixed()
        drawn = family.resolve(family.draw(np.random.default_rng(1), 8))
        sampled = family.sample(np.random.default_rng(1), 8)
        for a, b in zip(drawn, sampled):
            assert np.array_equal(a, b)

    def test_ball_index_map_enumerates_balls(self):
        radius = 9
        x, y = ball_cells_from_index(np.arange(ball_size(radius)))
        assert list(zip(x.tolist(), y.tolist())) == list(ball_cells(radius))
        # Radius-free: the first |B(r)| indices of a larger ball agree.
        x2, y2 = ball_cells_from_index(np.arange(ball_size(radius + 5)))
        assert np.array_equal(x2[: x.size], x)
        assert np.array_equal(y2[: y.size], y)


# ----------------------------------------------------------------------
# Block packs in the sweep runner
# ----------------------------------------------------------------------


def adaptive(**overrides):
    base = dict(
        algorithm="nonuniform",
        distances=(8, 16, 32),
        ks=(1, 4),
        trials=32,
        seed=11,
        placement="offaxis",
        budget=BudgetPolicy.target_rel_ci(0.15, min_trials=32, max_trials=512),
    )
    base.update(overrides)
    return SweepSpec(**base)


def assert_sweeps_equal(a, b):
    assert [(c.distance, c.k) for c in a] == [(c.distance, c.k) for c in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


class TestExecutePack:
    def test_pack_equals_lone_blocks(self):
        spec = adaptive()
        blocks = [(8, 1, 0), (32, 4, 3), (16, 1, 1), (8, 4, 2)]
        packed = _execute_pack((spec, blocks))
        lone = np.concatenate([_execute_block((spec, *b)) for b in blocks])
        assert np.array_equal(packed, lone)
        assert packed.size == sum(block_trials(b) for _, _, b in blocks)

    def test_lone_block_equals_the_engine_entry_point(self):
        spec = adaptive()
        strategy = build_algorithm(spec.algorithm, 4, spec.param_dict())
        expected = simulate_find_times_block(
            strategy, _cell_world(spec, 16, 4), 4, block_trials(2),
            spec.seed, distance=16, block=2,
        )
        assert np.array_equal(_execute_block((spec, 16, 4, 2)), expected)

    def test_walker_blocks_keep_their_entry_point(self):
        spec = adaptive(algorithm="random_walk", horizon=300.0)
        blocks = [(8, 1, 0), (8, 4, 1)]
        packed = _execute_pack((spec, blocks))
        parts = []
        for distance, k, block in blocks:
            parts.append(walker_find_times_block(
                build_algorithm("random_walk", k, {}),
                _cell_world(spec, distance, k), k, block_trials(block),
                spec.seed, distance=distance, block=block, horizon=300.0,
            ))
        assert np.array_equal(packed, np.concatenate(parts))

    def test_dynamic_world_blocks_keep_their_entry_point(self):
        world = WorldSpec(n_targets=2)
        spec = adaptive(world=world, horizon=2000.0)
        blocks = [(8, 1, 0), (16, 4, 1)]
        packed = _execute_pack((spec, blocks))
        parts = []
        for distance, k, block in blocks:
            parts.append(simulate_find_times_block(
                build_algorithm("nonuniform", k, {}),
                _cell_world(spec, distance, k), k, block_trials(block),
                spec.seed, distance=distance, block=block, horizon=2000.0,
                world_spec=world,
            ))
        assert np.array_equal(packed, np.concatenate(parts))

    def test_serial_rounds_are_one_pack(self, monkeypatch):
        import repro.sweep.runner as runner_mod

        sizes = []
        real = runner_mod._execute_pack

        def spy(payload):
            sizes.append(len(payload[1]))
            return real(payload)

        monkeypatch.setattr(runner_mod, "_execute_pack", spy)
        spec = adaptive()
        run_sweep(spec, cache=False)
        assert sizes[0] == len(spec.cells())  # every cell's block 0
        assert sizes == sorted(sizes, reverse=True)  # cells only drop out

    def test_pool_packs_balance_estimated_cost(self, monkeypatch):
        import repro.sweep.runner as runner_mod

        packs = []
        real = runner_mod._execute_pack

        def spy(payload):
            packs.append(payload[1])
            return real(payload)

        monkeypatch.setattr(runner_mod, "_execute_pack", spy)
        spec = adaptive(distances=(8, 16, 64), ks=(1, 4))
        workers = 4
        with VirtualExecutor(
            workers=workers, cost_fn=lambda fn, payload, result: 1.0
        ) as virtual:
            pooled = run_sweep(spec, cache=False, executor=virtual)
        # The first round spreads every cell's block 0 over the slots:
        # the heaviest cell (D + D^2/k prior) alone, cheap cells shared.
        first_round = [block for pack in packs[:workers] for block in pack]
        assert sorted(first_round) == sorted(
            (c.distance, c.k, 0) for c in spec.cells()
        )
        assert packs[0] == [(64, 1, 0)]
        assert max(len(pack) for pack in packs[:workers]) > 1
        assert_sweeps_equal(pooled, run_sweep(spec, cache=False))


class TestPackSweepParity:
    """Pack sweeps equal the sequential per-block reference everywhere."""

    @pytest.fixture(autouse=True)
    def _disarmed(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        deactivate()
        yield
        deactivate()

    @pytest.fixture(scope="class")
    def spec(self):
        return adaptive(scenario=ScenarioSpec(detection_prob=0.8))

    @pytest.fixture(scope="class")
    def reference(self, spec):
        return run_sweep(spec, cache=False)

    def test_serial_equals_per_cell_reference(self, spec, reference):
        for cell in reference:
            expected = reference_cell_times(spec, cell.distance, cell.k)
            assert np.array_equal(cell.times, expected)

    def test_process_pool(self, spec, reference):
        assert_sweeps_equal(
            reference, run_sweep(spec, cache=False, workers=2, backend="process")
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_traced(self, spec, reference, backend):
        sink = MemorySink()
        with tracing(sink):
            traced = run_sweep(spec, cache=False, workers=2, backend=backend)
        assert_sweeps_equal(reference, traced)
        starts = [r for r in sink.records if r["name"] == "cell.block.start"]
        assert starts and all(r["data"]["kind"] == "pack" for r in starts)

    def test_worker_killed_mid_pack(self, spec, reference):
        kill = FaultPlan(rules=(FaultRule(site="pool.kill", times=1),))
        with fault_plan(kill):
            assert os.environ.get(CRASH_ENV)
            faulted = run_sweep(spec, cache=False, workers=2, backend="process")
        assert_sweeps_equal(reference, faulted)
