"""The unique bounded solution of the worked two-dimensional scenario.

Builds the model (rotation-scaling matrix, two-harmonic periodic forcing,
chaotic logistic sequence forcing), checks the spectral assumptions, builds
the exponential-decay certificate, and evaluates the bounded solution two
independent ways: by truncated convolution against the transition matrices,
and by forward integration from deep in the past.  Finishes with the
periodic/Poisson split, read from the same evaluator.

If matplotlib is installed, saves bounded_solution.png in the current
directory.
"""

from pathlib import Path

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
    check_contractive_period,
    check_invertible_jump,
    compact_grid,
    decompose,
    integrate,
    lift,
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

a1 = check_invertible_jump(model)
a2 = check_contractive_period(model)
print(f"jump factor determinant : {a1.value:.6f}  (invertible: {a1.passed})")
print(f"period-map radius       : {a2.value:.10f}  (contractive: {a2.passed})")

cert = certify(model)
print(f"certified decay         : ||U(s,r)|| <= {cert.prefactor:.3f} "
      f"* exp(-{cert.decay_rate:.4f} (s-r))")

evaluator = BoundedSolutionEvaluator(model, cert, tol=1e-8)
print(f"truncation horizon      : {evaluator.horizon:.1f} time units")
print(f"sup-norm ceiling        : {evaluator.sup_bound:.2f}")

print("\nbounded solution, convolution vs deep-past integration:")
for s in (2.0, 6.5, 11.0):
    conv = evaluator.value(s)
    deep = integrate(model, np.zeros(2), s - evaluator.horizon, s, 2e-3).value(s)
    print(f"  phi({s:5.2f}) = ({conv[0]:+.6f}, {conv[1]:+.6f})   "
          f"disagreement {np.linalg.norm(conv - deep):.1e}")

grid = compact_grid(ts, -4.0, 20.0, 0.05)
theta = lift(model, evaluator, grid)
theta1, theta2 = decompose(model, evaluator, grid)
print(f"\non the scale: {theta.t.size} samples, "
      f"{len(theta.endpoint_values)} endpoint values")
print(f"periodic part sup   : {theta1.max_norm():.3f}")
print(f"recurrent part sup  : {theta2.max_norm():.3f}")
residual = max(
    np.linalg.norm(theta.value(t) - theta1.value(t) - theta2.value(t))
    for t in grid
)
print(f"decomposition defect: {residual:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(3, 1, figsize=(9, 7), sharex=True)
    for ax, sol, label in ((axes[0], theta, "bounded solution"),
                           (axes[1], theta1, "periodic part"),
                           (axes[2], theta2, "recurrent part")):
        breaks = np.where(np.diff(sol.t) > 1.0)[0]
        segments = np.split(np.arange(sol.t.size), breaks + 1)
        for seg in segments:
            ax.plot(sol.t[seg], sol.y[seg, 0], "C0-", lw=1)
            ax.plot(sol.t[seg], sol.y[seg, 1], "C1-", lw=1)
        ax.set_ylabel(label)
    axes[-1].set_xlabel("t")
    out = Path("bounded_solution.png").resolve()
    fig.savefig(out, dpi=120, bbox_inches="tight")
    print(f"\nwrote {out}")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
