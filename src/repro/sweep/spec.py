"""Declarative sweep specifications.

A :class:`SweepSpec` names everything a parameter sweep depends on — the
algorithm (by registry name), its parameters, the ``D x k`` grid, trial
count, treasure placement, root seed and optional horizon — as plain
serialisable data.  Two properties follow from that:

* the spec has a stable content hash (:meth:`SweepSpec.spec_hash`), which
  keys the on-disk result cache: the same spec always maps to the same
  file, and any change to any knob maps to a different one;
* the spec can be shipped to a worker process verbatim, which is what the
  executor backends of :func:`repro.sweep.runner.run_sweep` do.

Execution is organised in *groups*: all distances that share a ``k`` form
one group.  Excursion algorithms resolve a group with a single
:func:`repro.sim.events.simulate_find_times_batch` call — one multi-world
task of the stacked excursion kernel — that shares each
phase's excursion draws across the group's worlds (common random numbers —
per-cell means stay unbiased while cross-distance comparisons see paired
noise); walker baselines (:mod:`repro.sim.walkers`) resolve it with
:func:`repro.sim.walkers.walker_find_times_batch`, one child seed per
world.  The runner picks the engine with
:func:`repro.sim.protocol.engine_for` on the built strategy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..algorithms import (
    GridBeliefSearch,
    HarmonicSearch,
    HedgedApproxSearch,
    NaiveTrustSearch,
    NonUniformSearch,
    RestartingHarmonicSearch,
    RhoApproxSearch,
    ScaledBudgetSearch,
    UniformSearch,
)
from ..algorithms.base import ExcursionAlgorithm
from ..algorithms.belief import AdaptiveSearcher
from ..checks.registry import register_stream
from ..scenarios import ScenarioSpec
from ..sim.protocol import WalkerBatchEngine, engine_for
from ..sim.walkers import BiasedWalker, LevyWalker, RandomWalker, Walker
from ..sim.world import WorldSpec, resolve_world
from ..stats import BudgetPolicy

__all__ = [
    "SPEC_VERSION",
    "BLOCK_SCHEDULE_VERSION",
    "FIRST_BLOCK_TRIALS",
    "MAX_BLOCK_TRIALS",
    "FIXED_CHUNK_THRESHOLD",
    "FIXED_CHUNK_SIZE",
    "GROUP_CHUNK_STREAM",
    "block_trials",
    "completed_trials",
    "group_chunks",
    "whole_blocks",
    "ALGORITHM_BUILDERS",
    "register_algorithm",
    "build_algorithm",
    "SweepCell",
    "SweepGroup",
    "SweepSpec",
    "SweepStrategy",
]

#: Bumped whenever the execution semantics change in a way that invalidates
#: cached results (seed derivation, engine semantics, npz layout).
#: v2: the spec dict gained the scenario layer (fault/heterogeneity knobs).
#: (The adaptive ``budget`` field is serialised only when present, so
#: budget-less specs keep their v2 identity and their cache entries.)
SPEC_VERSION = 2

#: Version of the deterministic trial-block schedule below.  Part of the
#: block store's data identity: changing the schedule re-keys every
#: adaptive cache entry instead of mixing incompatible block layouts.
#: v2: block growth is capped at :data:`MAX_BLOCK_TRIALS`, so a heavy
#: cell decomposes into many equal-sized blocks that the block-level
#: executor can run concurrently (v1's pure doubling made the last block
#: half the cell — an unsplittable straggler).
BLOCK_SCHEDULE_VERSION = 2

#: Size of the first trial block; later blocks double up to the cap, so
#: the schedule is 32, 32, 64, 128, 128, 128, ...  Doubling keeps small
#: allocations cheap (few engine calls); the cap keeps large cells
#: parallelisable and the stopping rule's granularity bounded.
FIRST_BLOCK_TRIALS = 32

#: Ceiling on the size of a single trial block (see above).
MAX_BLOCK_TRIALS = 128


def block_trials(block: int) -> int:
    """Trials in block ``block`` of the schedule (32, 32, 64, 128, 128, ...)."""
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    if block == 0:
        return FIRST_BLOCK_TRIALS
    return min(FIRST_BLOCK_TRIALS << (block - 1), MAX_BLOCK_TRIALS)


#: First block index at the cap: doubling stops there.
_CAP_BLOCK = (MAX_BLOCK_TRIALS // FIRST_BLOCK_TRIALS).bit_length()


def completed_trials(blocks: int) -> int:
    """Total trials after ``blocks`` whole blocks of the schedule."""
    if blocks < 0:
        raise ValueError(f"block count must be >= 0, got {blocks}")
    if blocks == 0:
        return 0
    if blocks <= _CAP_BLOCK:
        return FIRST_BLOCK_TRIALS << (blocks - 1)
    return (FIRST_BLOCK_TRIALS << (_CAP_BLOCK - 1)) + (
        blocks - _CAP_BLOCK
    ) * MAX_BLOCK_TRIALS


def whole_blocks(trials: int) -> int:
    """Largest block count whose cumulative size is ``<= trials``.

    A cached cell is usable up to this boundary; any ragged tail beyond
    it (from a crashed writer or foreign file) is discarded so appended
    blocks always start at a schedule boundary.
    """
    blocks = 0
    while completed_trials(blocks + 1) <= trials:
        blocks += 1
    return blocks


#: Fixed-path group chunking (see :func:`group_chunks`).  A k-group with
#: more distances than the threshold is split into chunks of
#: ``FIXED_CHUNK_SIZE`` so a grid with few ``k`` values but many
#: distances stops serialising on a single worker.  The layout is a
#: function of the spec alone — never of the worker count — because for
#: excursion algorithms the batch engine shares draws across a chunk, so
#: the chunk layout is part of the result's identity (serial and pooled
#: runs must stay bitwise identical).  Specs whose groups actually split
#: carry the layout in their canonical dict (see ``SweepSpec.to_dict``).
FIXED_CHUNK_THRESHOLD = 8
FIXED_CHUNK_SIZE = 4

#: Leading key of the per-chunk simulation stream when a group splits:
#: chunk ``c`` of a group is seeded ``derive_seed(group_seed,
#: GROUP_CHUNK_STREAM, c)``.
GROUP_CHUNK_STREAM = register_stream("GROUP_CHUNK_STREAM", 0xC4A9C)


def group_chunks(distances: Sequence[int]) -> List[Tuple[int, ...]]:
    """Deterministic chunk layout of one group's distances.

    Groups at or under :data:`FIXED_CHUNK_THRESHOLD` distances stay whole
    (byte-for-byte the pre-executor execution, preserving every existing
    cache entry); larger groups split into :data:`FIXED_CHUNK_SIZE`-sized
    chunks in distance order.
    """
    items = tuple(distances)
    if len(items) <= FIXED_CHUNK_THRESHOLD:
        return [items]
    return [
        items[i : i + FIXED_CHUNK_SIZE]
        for i in range(0, len(items), FIXED_CHUNK_SIZE)
    ]

ParamsLike = Union[Mapping[str, float], Sequence[Tuple[str, float]]]

#: What a builder may return: an excursion algorithm (resolved by the
#: batched excursion engine), a walker baseline (resolved by the batched
#: walker engine of :mod:`repro.sim.walkers`), or an adaptive searcher
#: (self-simulating, walker-shaped; :mod:`repro.algorithms.belief`).  The
#: runner dispatches on the instance type.
SweepStrategy = Union[ExcursionAlgorithm, Walker, AdaptiveSearcher]

#: name -> builder(k, params) for every strategy a sweep can name.
#: Builders receive the true agent count ``k`` so that k-aware algorithms
#: (``A_k``) can use it; k-oblivious algorithms and walkers ignore it.
ALGORITHM_BUILDERS: Dict[
    str, Callable[[int, Mapping[str, float]], SweepStrategy]
] = {}


def register_algorithm(
    name: str, builder: Callable[[int, Mapping[str, float]], SweepStrategy]
) -> None:
    """Register a sweepable strategy under ``name`` (overwrites quietly)."""
    ALGORITHM_BUILDERS[name] = builder


def build_algorithm(
    name: str, k: int, params: Mapping[str, float]
) -> SweepStrategy:
    """Instantiate the registered strategy ``name`` for ``k`` agents."""
    if name not in ALGORITHM_BUILDERS:
        known = ", ".join(sorted(ALGORITHM_BUILDERS))
        raise KeyError(f"unknown sweep algorithm {name!r}; known: {known}")
    return ALGORITHM_BUILDERS[name](k, params)


register_algorithm("nonuniform", lambda k, p: NonUniformSearch(k=p.get("k", k)))
register_algorithm(
    "nonuniform_scaled",
    lambda k, p: ScaledBudgetSearch(
        k=p.get("k", k), budget_scale=p.get("budget_scale", 1.0)
    ),
)
register_algorithm("uniform", lambda k, p: UniformSearch(p.get("eps", 0.5)))
register_algorithm("harmonic", lambda k, p: HarmonicSearch(p.get("delta", 0.5)))
register_algorithm(
    "restarting_harmonic",
    lambda k, p: RestartingHarmonicSearch(p.get("delta", 0.5)),
)
register_algorithm("rho", lambda k, p: RhoApproxSearch(k_a=p["k_a"], rho=p["rho"]))
register_algorithm("naive", lambda k, p: NaiveTrustSearch(k_tilde=p["k_tilde"]))
register_algorithm(
    "hedged",
    lambda k, p: HedgedApproxSearch(
        k_tilde=p["k_tilde"], eps=p.get("eps", 0.5)
    ),
)

# Walker baselines (require a spec horizon; see repro.sim.walkers).
register_algorithm("random_walk", lambda k, p: RandomWalker())
register_algorithm(
    "biased_walk", lambda k, p: BiasedWalker(p.get("persistence", 0.9))
)
register_algorithm(
    "levy",
    lambda k, p: LevyWalker(p.get("mu", 2.0), int(p.get("max_segment", 10**6))),
)

# Adaptive searchers (require a spec horizon; see repro.algorithms.belief).
register_algorithm(
    "grid_belief",
    lambda k, p: GridBeliefSearch(
        cell=int(p.get("cell", 4)),
        radius=(int(p["radius"]) if "radius" in p else None),
        tremble=p.get("tremble", 0.25),
    ),
)


@dataclass(frozen=True)
class SweepCell:
    """One ``(D, k)`` cell of a sweep grid."""

    distance: int
    k: int


@dataclass(frozen=True)
class SweepGroup:
    """All cells sharing one ``k`` — the unit of batched execution."""

    k: int
    distances: Tuple[int, ...]


@dataclass(frozen=True)
class SweepSpec:
    """A fully-described ``algorithm x D x k x trials`` sweep.

    ``params`` accepts a mapping or key/value pairs and is normalised to a
    sorted tuple so that equal specs hash equally.  ``seed`` must be a plain
    integer (serialisable); derive one from a structured key with
    :func:`repro.sim.rng.derive_seed`.

    ``scenario`` (:class:`repro.scenarios.ScenarioSpec`, a mapping, or
    ``None``) is the fault/heterogeneity layer and participates in the
    content hash — two sweeps that differ only in scenario cache
    separately.  The all-default scenario is canonicalised to ``None``, so
    "no scenario" and "explicitly unperturbed" are the *same* spec (and
    the same cache entry, which the zero-perturbation engine guarantee
    makes sound).

    ``budget`` (:class:`repro.stats.BudgetPolicy`, a mapping, or ``None``)
    selects the trial-allocation policy.  ``None`` means "exactly
    ``trials`` per cell", and a ``fixed(n)`` policy is canonicalised to
    exactly that (``trials=n, budget=None``) — a fixed-budget spec *is*
    today's spec: same hash, same cache entry, bitwise identical results.
    Adaptive policies (``target_rel_ci``, ``wall``) participate in the
    hash (two sweeps with different precision targets are different
    sweeps) while their trial *blocks* are cached under the policy-free
    :meth:`data_hash`, so tightening a target tops existing blocks up
    instead of recomputing them.  ``trials`` is ignored by adaptive
    execution (allocation comes from the policy).

    ``world`` (:class:`repro.sim.world.WorldSpec`, a mapping, or ``None``)
    is the world-process layer — target count, motion, arrival,
    world-level detection.  Like the scenario, it participates in both
    hash partitions (a dynamic sweep is a different sweep *and* a
    different block stream) and the all-default spec is canonicalised to
    ``None`` via :func:`repro.sim.world.resolve_world`, so "no world
    spec" and "explicitly static" are the same spec, the same hash, and
    the same cache entry — the engines' structural legacy-path guarantee
    makes that sound.  Dynamic-world execution is per-row seeded (one
    engine call per distance), so the chunk layout never affects results
    and dynamic specs never carry the ``fixed_chunking`` marker.
    """

    algorithm: str
    distances: Tuple[int, ...]
    ks: Tuple[int, ...]
    trials: int
    params: Tuple[Tuple[str, float], ...] = ()
    placement: str = "offaxis"
    seed: int = 0
    horizon: Optional[float] = None
    require_k_le_d: bool = False
    scenario: Optional[ScenarioSpec] = None
    budget: Optional[BudgetPolicy] = None
    world: Optional[WorldSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "distances", tuple(int(d) for d in self.distances)
        )
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        # The constructor accepts mappings and pair sequences for the
        # polymorphic fields; the locals are Any because the declared
        # field types describe the *canonicalised* form built here.
        params: Any = self.params
        items = params.items() if isinstance(params, Mapping) else params
        object.__setattr__(
            self,
            "params",
            tuple(sorted((str(name), float(value)) for name, value in items)),
        )
        if not self.distances or not self.ks:
            raise ValueError("distances and ks must be non-empty")
        if any(d < 1 for d in self.distances):
            raise ValueError("distances must be >= 1")
        if any(k < 1 for k in self.ks):
            raise ValueError("ks must be >= 1")
        # A grid names each cell once: results, journals and block
        # stores are keyed by (distance, k).
        for name, axis in (("distances", self.distances), ("ks", self.ks)):
            if len(set(axis)) != len(axis):
                raise ValueError(f"{name} must not repeat a value: {axis}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.seed, int):
            raise TypeError(
                f"spec seed must be a plain int, got {type(self.seed).__name__}"
            )
        scenario: Any = self.scenario
        if isinstance(scenario, Mapping):
            scenario = ScenarioSpec.from_dict(scenario)
        if scenario is not None and not isinstance(scenario, ScenarioSpec):
            raise TypeError(
                f"spec scenario must be a ScenarioSpec, mapping or None, "
                f"got {type(scenario).__name__}"
            )
        # Canonicalise: the all-default scenario IS the absent scenario, so
        # specs that mean the same sweep hash (and cache) identically.
        if scenario is not None and scenario.is_default:
            scenario = None
        object.__setattr__(self, "scenario", scenario)
        budget: Any = self.budget
        if isinstance(budget, Mapping):
            budget = BudgetPolicy.from_dict(budget)
        if budget is not None and not isinstance(budget, BudgetPolicy):
            raise TypeError(
                f"spec budget must be a BudgetPolicy, mapping or None, "
                f"got {type(budget).__name__}"
            )
        # Canonicalise: fixed(n) IS today's trials=n spec — same hash,
        # same cache entry, bitwise identical execution path.
        if budget is not None and budget.is_fixed:
            object.__setattr__(self, "trials", int(budget.trials))
            budget = None
        object.__setattr__(self, "budget", budget)
        world: Any = self.world
        if isinstance(world, Mapping):
            world = WorldSpec.from_dict(world)
        if world is not None and not isinstance(world, WorldSpec):
            raise TypeError(
                f"spec world must be a WorldSpec, mapping or None, "
                f"got {type(world).__name__}"
            )
        # Canonicalise: the all-default world IS the absent world, so
        # static single-target specs keep their historical hash and cache.
        object.__setattr__(self, "world", resolve_world(world))

    def param_dict(self) -> Dict[str, float]:
        return dict(self.params)

    def groups(self) -> List[SweepGroup]:
        """Batched execution units, in deterministic (k-major) order.

        With ``require_k_le_d``, cells with ``k > D`` are dropped (the
        regime the paper's analyses reduce away); a ``k`` whose distances
        all drop contributes no group.
        """
        groups: List[SweepGroup] = []
        for k in self.ks:
            distances = tuple(
                d
                for d in self.distances
                if not (self.require_k_le_d and k > d)
            )
            if distances:
                groups.append(SweepGroup(k=k, distances=distances))
        return groups

    def cells(self) -> List[SweepCell]:
        """All grid cells in group (k-major) order."""
        return [
            SweepCell(distance=d, k=group.k)
            for group in self.groups()
            for d in group.distances
        ]

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form (the hashing and cache-metadata basis).

        The ``budget`` key is emitted only when an adaptive policy is
        present, so budget-less specs keep the exact dict (and hash, and
        on-disk cache entries) they had before the adaptive layer existed.
        """
        data: Dict[str, object] = {
            "version": SPEC_VERSION,
            "algorithm": self.algorithm,
            "params": [list(pair) for pair in self.params],
            "distances": list(self.distances),
            "ks": list(self.ks),
            "trials": self.trials,
            "placement": self.placement,
            "seed": self.seed,
            "horizon": self.horizon,
            "require_k_le_d": self.require_k_le_d,
            "scenario": (
                self.scenario.to_dict() if self.scenario is not None else None
            ),
        }
        if self.budget is not None:
            data["budget"] = self.budget.to_dict()
        # Like ``budget``: emitted only when present, so every static
        # single-target spec keeps its historical dict, hash, and cache
        # entries byte for byte.
        if self.world is not None:
            data["world"] = self.world.to_dict()
        # Specs whose k-groups exceed the chunk threshold execute under
        # the chunked fixed-path layout, which — for excursion
        # algorithms, whose batch engine shares draws across a chunk —
        # changes the draw streams relative to a whole-group batch.  The
        # layout parameters join the canonical dict for exactly those
        # specs, so their hash moves and stale pre-chunking cache entries
        # can never be mistaken for chunked results — while every spec at
        # or under the threshold keeps its historical dict, hash, and
        # cache entries bit for bit.  Walker rows are per-world seeded
        # and chunk bitwise-identically, so walker specs are exempt:
        # their old entries stay valid and keep hitting.
        if self._chunking_changes_results():
            data["fixed_chunking"] = [FIXED_CHUNK_THRESHOLD, FIXED_CHUNK_SIZE]
        return data

    def _chunking_changes_results(self) -> bool:
        if not any(
            len(group.distances) > FIXED_CHUNK_THRESHOLD
            for group in self.groups()
        ):
            return False
        if self.world is not None:
            # Dynamic-world rows are per-world seeded (one engine call
            # per distance, walker-style), so any chunk layout is
            # bitwise identical to the unsplit group.
            return False
        try:
            probe = build_algorithm(
                self.algorithm, self.ks[0], self.param_dict()
            )
        except KeyError:
            # Unregistered strategy or missing parameter: the spec can
            # never execute, so err on the side of the marker.
            return True
        return not isinstance(engine_for(probe), WalkerBatchEngine)

    def hashed_fields(self) -> Tuple[str, ...]:
        """The keys of this spec's full-identity hash partition.

        Introspection seam for rule R005: the committed hash manifest
        records which fields exist in which partition, so a field that
        silently appears, disappears, or moves between partitions is
        caught by ``repro-ants check``.
        """
        return tuple(sorted(self.to_dict()))

    def data_fields(self) -> Tuple[str, ...]:
        """The keys of this spec's block-stream-identity hash partition."""
        return tuple(sorted(self.data_dict()))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            algorithm=data["algorithm"],
            distances=tuple(data["distances"]),
            ks=tuple(data["ks"]),
            trials=int(data["trials"]),
            params=tuple((name, value) for name, value in data["params"]),
            placement=data["placement"],
            seed=int(data["seed"]),
            horizon=data["horizon"],
            require_k_le_d=bool(data["require_k_le_d"]),
            scenario=data.get("scenario"),
            budget=data.get("budget"),
            world=data.get("world"),
        )

    def spec_hash(self) -> str:
        """Stable content hash over every result-determining knob."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]

    def data_dict(self) -> Dict[str, object]:
        """Identity of this spec's per-cell trial-block *streams*.

        Everything that determines the content of block ``b`` of cell
        ``(D, k)`` — algorithm, params, placement, root seed, horizon,
        scenario, and the block schedule version — and nothing that only
        determines *which* or *how many* cells/trials are wanted (grid
        extents, ``trials``, ``budget``, ``require_k_le_d``).  Two specs
        with the same ``data_dict`` can share cached blocks cell by cell:
        a wider grid reuses the old grid's cells, a tighter precision
        target tops cells up.
        """
        data: Dict[str, object] = {
            "version": SPEC_VERSION,
            "block_schedule": BLOCK_SCHEDULE_VERSION,
            "algorithm": self.algorithm,
            "params": [list(pair) for pair in self.params],
            "placement": self.placement,
            "seed": self.seed,
            "horizon": self.horizon,
            "scenario": (
                self.scenario.to_dict() if self.scenario is not None else None
            ),
        }
        # The world process changes every block's content, so it joins
        # the block-stream identity — but only when present, keeping
        # every existing static block store keyed as before.
        if self.world is not None:
            data["world"] = self.world.to_dict()
        return data

    def data_hash(self) -> str:
        """Stable content hash of :meth:`data_dict` (block-store key)."""
        canonical = json.dumps(self.data_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:20]
