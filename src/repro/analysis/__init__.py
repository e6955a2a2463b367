"""Analysis: competitive ratios, tail shapes, scaling fits, lower-bound machinery.

Find-time estimators (moments, censoring, success rates, Wilson
intervals) live in :mod:`repro.stats`.
"""

from .competitiveness import (
    CompetitivenessCell,
    competitiveness,
    measure_competitiveness,
    optimal_time,
    sweep_competitiveness,
)
from .distributions import (
    doubling_tail,
    empirical_cdf,
    hill_estimator,
    survival_at,
    tail_is_geometric,
)
from .fitting import FitResult, fit_polylog, fit_power_law, r_squared
from .lower_bounds import (
    AnnulusLoad,
    adversarial_treasure,
    annulus_load_profile,
    harmonic_sum_divergence,
    visit_probability_map,
)
from .theory import (
    assertion2_phase_index,
    harmonic_alpha,
    harmonic_failure_bound,
    harmonic_time_bound,
    lower_bound_time,
    nonuniform_stage_time_bound,
    uniform_critical_stage,
    uniform_stage_time,
    zeta_constant,
)

__all__ = [
    "AnnulusLoad",
    "CompetitivenessCell",
    "FitResult",
    "adversarial_treasure",
    "annulus_load_profile",
    "assertion2_phase_index",
    "competitiveness",
    "doubling_tail",
    "empirical_cdf",
    "fit_polylog",
    "fit_power_law",
    "hill_estimator",
    "survival_at",
    "tail_is_geometric",
    "harmonic_alpha",
    "harmonic_failure_bound",
    "harmonic_sum_divergence",
    "harmonic_time_bound",
    "lower_bound_time",
    "measure_competitiveness",
    "nonuniform_stage_time_bound",
    "optimal_time",
    "r_squared",
    "sweep_competitiveness",
    "uniform_critical_stage",
    "uniform_stage_time",
    "visit_probability_map",
    "zeta_constant",
]
