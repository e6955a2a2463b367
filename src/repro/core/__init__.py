"""Core substrate: grid geometry, the spiral primitive, walks, and schedules.

These are the building blocks Section 2 of the paper assumes of its agents:
the L1 grid metric and balls (:mod:`repro.core.geometry`), the spiral search
primitive (:mod:`repro.core.spiral`), straight-line and circle navigation
(:mod:`repro.core.walks`), and the deterministic excursion schedules of the
iterated algorithms (:mod:`repro.core.schedule`).
"""

from .geometry import (
    annulus_cells,
    annulus_size,
    ball_cells,
    ball_cells_from_index,
    ball_size,
    l1_distance,
    l1_norm,
    ring_cells,
    ring_size,
    sample_uniform_ball,
    sample_uniform_ring,
    zeta,
)
from .schedule import (
    PhaseSpec,
    guess_cycle_schedule,
    nonuniform_schedule,
    phase_max_duration,
    uniform_schedule,
)
from .spiral import (
    coverage_radius,
    spiral_cells,
    spiral_hit_time,
    spiral_hit_time_array,
    spiral_position,
    spiral_position_array,
    spiral_steps,
    time_to_cover_radius,
)
from .walks import diamond_tour, diamond_tour_length, manhattan_path

__all__ = [
    "PhaseSpec",
    "annulus_cells",
    "annulus_size",
    "ball_cells",
    "ball_cells_from_index",
    "ball_size",
    "coverage_radius",
    "diamond_tour",
    "diamond_tour_length",
    "guess_cycle_schedule",
    "l1_distance",
    "l1_norm",
    "manhattan_path",
    "nonuniform_schedule",
    "phase_max_duration",
    "ring_cells",
    "ring_size",
    "sample_uniform_ball",
    "sample_uniform_ring",
    "spiral_cells",
    "spiral_hit_time",
    "spiral_hit_time_array",
    "spiral_position",
    "spiral_position_array",
    "spiral_steps",
    "time_to_cover_radius",
    "uniform_schedule",
    "zeta",
]
