"""Certifying the solution structure: periodic + Poisson-recurrent + stable.

Mines record return times of the chaotic logistic sequence, measures how
closely the sequence-driven solution component returns to itself under the
corresponding period-multiple time shifts, checks the certified sup-norm
bound and exponential contraction of nearby trajectories, and aggregates
everything into the final verdict.
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
    as_timescale_function,
    certify,
    compact_grid,
    find_return_times,
    lift,
    mpps_report,
    verify_bound,
    verify_periodic,
    verify_poisson,
    verify_stability,
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

tol = 1e-8
evaluator = BoundedSolutionEvaluator(model, cert, tol)
parts = as_timescale_function(evaluator)  # rows [periodic, sequence]

lo, hi, step = 1.0, 17.0, 0.05
grid = compact_grid(ts, lo, hi, step)

# one batch: the compact grid (row 0), its copy one period on (row 1) and its
# return-shifted copies (rows 2 on)
values = parts(np.add.outer(ts.period * np.array([0, 1, *returns.zetas]), grid))
rep_periodic = verify_periodic(values[:2, :, 0], ts.period, tol=1e-6)
print(f"\nperiodicity of the periodic part: deviation "
      f"{rep_periodic.metrics['max_shift_deviation']:.2e} -> {rep_periodic.passed}")

values = np.delete(values, 1, axis=0)  # row 0 and the return rows
rep_poisson = verify_poisson(values[..., 1, :], returns, lo, hi, step)
sups = [rep_poisson.metrics[f"D_{i}"] for i in range(len(returns.entries))]
print("recurrence of the sequence-driven part:")
for entry, sup in zip(returns.entries, sups):
    print(f"  shift {entry.zeta:6d}: sup difference {sup:.4f}")
print(f"  threshold {rep_poisson.parameters['eps']:.4f} -> {rep_poisson.passed}")

theta = lift(evaluator, grid)
rep_bound = verify_bound(theta, cert, evaluator.sup_forcing, evaluator.sup_sequence)
print(f"sup-norm bound: {rep_bound.metrics['max_solution_norm']:.2f} <= "
      f"{rep_bound.metrics['bound']:.2f} -> {rep_bound.passed}")

rng = np.random.default_rng(11)
rep_stability = verify_stability(
    model, cert, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2),
    t0=1.0, horizon=10 * ts.period, step=1e-3,
)
print(f"contraction slope {rep_stability.metrics['fitted_slope']:.4f} "
      f"(certified rate -{cert.decay_rate:.4f}) -> {rep_stability.passed}")

rep_poisson_full = verify_poisson(
    values.sum(axis=-2), returns, lo, hi, step, eps=rep_poisson.parameters["eps"] + 2 * tol,
)
verdict = mpps_report(
    rep_periodic, rep_poisson, rep_bound, rep_stability,
    poisson_full=rep_poisson_full, tol=tol,
)
print(f"\nshift-invariance transfers to the full solution with deviation "
      f"{verdict.metrics['recurrence_identity_deviation']:.2e}")
print(f"aggregate verdict: {'PASS' if verdict.passed else 'FAIL'}")
