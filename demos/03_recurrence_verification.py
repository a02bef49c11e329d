"""Certifying the solution structure: periodic + Poisson-recurrent + stable.

Mines record return times of the chaotic logistic sequence and runs the one
verification pipeline, ``verify_all``, that ``tsdyn verify`` runs too.  From
its reports the demo prints how closely the periodic part returns to itself
one period on, how closely the sequence-driven part returns to itself under
the period-multiple shifts of the returns, the certified sup-norm bound, the
contraction of two nearby trajectories, and the aggregate verdict.
"""

import numpy as np

from tsdyn import (
    BoundedSolutionEvaluator,
    ForcingComponent,
    Harmonic,
    ImpulsiveModel,
    LogisticSequence,
    TimeScaleSpec,
    TrigForcing,
    certify,
    find_return_times,
    verify_all,
)

ts = TimeScaleSpec(anchor=1.0, period=8.0, gap=3.0)
model = ImpulsiveModel(
    matrix=np.array([[-0.4, 0.2], [-0.2, -0.4]]),
    ts=ts,
    forcing=TrigForcing(8.0, (
        ForcingComponent(harmonics=(Harmonic(1, cos_coeff=1.0),)),
        ForcingComponent(harmonics=(Harmonic(2, sin_coeff=1.0),)),
    )),
    sequence=LogisticSequence(3.9, 0.4, k_min=-2000, output_map=(1.0, 2.0)),
)
cert = certify(model)

print("mining record return times of the logistic sequence (window [0, 20]):")
returns = find_return_times(model.sequence, (0, 20), zeta_max=100_000, max_count=3)
for entry in returns.entries:
    print(f"  shift {entry.zeta:6d}: recurrence defect {entry.defect:.4f}")

evaluator = BoundedSolutionEvaluator(model, cert, tol=1e-8)
rng = np.random.default_rng(11)
reports = verify_all(
    evaluator, returns, compact_lo=1.0, compact_hi=17.0, grid_step=0.05,
    y0=rng.uniform(-1, 1, 2) - rng.uniform(-1, 1, 2), stability_periods=10, step=1e-3,
)

periodic = reports["periodicity"]
print(f"\nperiodicity of the periodic part: deviation "
      f"{periodic.metrics['max_shift_deviation']:.2e} -> {periodic.passed}")

poisson = reports["poisson"]
print("recurrence of the sequence-driven part:")
for i, entry in enumerate(returns.entries):
    print(f"  shift {entry.zeta:6d}: sup difference {poisson.metrics[f'D_{i}']:.4f}")
print(f"  threshold {poisson.parameters['eps']:.4f} -> {poisson.passed}")

bound = reports["bound"]
print(f"sup-norm bound: {bound.metrics['max_solution_norm']:.2f} <= "
      f"{bound.metrics['bound']:.2f} -> {bound.passed}")

stability = reports["stability"]
print(f"contraction slope {stability.metrics['fitted_slope']:.4f} "
      f"(certified rate -{cert.decay_rate:.4f}) -> {stability.passed}")

verdict = reports["mpps"]
print(f"\nshift-invariance transfers to the full solution with deviation "
      f"{verdict.metrics['recurrence_identity_deviation']:.2e}")
print(f"aggregate verdict: {'PASS' if verdict.passed else 'FAIL'}")
