"""Bounded, stable, modulo-periodic recurrent solutions of linear dynamic
equations on periodic interval time scales, via reduction to impulsive
systems."""

from .analysis import (
    VerificationReport,
    compact_grid,
    mpps_report,
    verify_all,
    verify_bound,
    verify_periodic,
    verify_poisson,
    verify_stability,
)
from .dynamic import (
    TimeScaleSolution,
    as_timescale_function,
    decompose,
    delta_residual,
    lift,
    lift_and_parts,
    simulate_dynamic,
)
from .errors import (
    AssumptionError,
    ConfigError,
    ConvergenceError,
    HorizonError,
    MissingSampleError,
    TimeScaleDomainError,
    TsdynError,
)
from .forcing import (
    ForcingComponent,
    Harmonic,
    LogisticSequence,
    ReturnTimeSet,
    SupNormBound,
    TableSequence,
    TrigForcing,
    find_return_times,
    recurrence_defect,
)
from .impulsive import (
    BoundedSolutionEvaluator,
    ImpulsiveModel,
    StabilityCert,
    Trajectory,
    certify,
    check_contractive_period,
    check_invertible_jump,
    integrate,
    matriciant,
    solution_bound,
)
from .timescale import JumpInfo, TimeScaleSpec

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BoundedSolutionEvaluator",
    "ConfigError",
    "ConvergenceError",
    "ForcingComponent",
    "Harmonic",
    "HorizonError",
    "ImpulsiveModel",
    "JumpInfo",
    "LogisticSequence",
    "MissingSampleError",
    "ReturnTimeSet",
    "StabilityCert",
    "SupNormBound",
    "TableSequence",
    "TimeScaleDomainError",
    "TimeScaleSolution",
    "TimeScaleSpec",
    "Trajectory",
    "TrigForcing",
    "TsdynError",
    "VerificationReport",
    "as_timescale_function",
    "certify",
    "check_contractive_period",
    "check_invertible_jump",
    "compact_grid",
    "decompose",
    "delta_residual",
    "find_return_times",
    "integrate",
    "lift",
    "lift_and_parts",
    "matriciant",
    "mpps_report",
    "recurrence_defect",
    "simulate_dynamic",
    "solution_bound",
    "verify_all",
    "verify_bound",
    "verify_periodic",
    "verify_poisson",
    "verify_stability",
]
