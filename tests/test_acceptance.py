"""End-to-end acceptance gate for the worked two-dimensional scenario.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated runtime budget.  Tolerances are fixed here, not
calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from tsdyn import (
    BoundedSolutionEvaluator,
    as_timescale_function,
    certify,
    check_contractive_period,
    check_invertible_jump,
    compact_grid,
    decompose,
    find_return_times,
    integrate,
    lift,
    matriciant,
    verify_all,
    verify_bound,
    verify_periodic,
    verify_poisson,
    verify_stability,
)
from tsdyn.cli import EXIT_VERIFICATION_FAILED, bundled_example_path, load_config, run
from tsdyn.matrixkit import expm, spectral_norm


def _gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  [{detail}]" if detail else "")
    print(line)
    assert ok, line


def _budget(name, elapsed, limit):
    _gate(f"{name}: runtime {elapsed:.2f}s < {limit:.0f}s", elapsed < limit)


def test_criterion_1_assumption_checks(model5):
    start = time.time()
    a1 = check_invertible_jump(model5)
    a2 = check_contractive_period(model5)
    elapsed = time.time() - start
    det_err = abs(a1.value - 0.4)
    _gate("criterion 1: det(I + 3A) = 0.4 within 1e-12", det_err < 1e-12,
          f"det={a1.value:.15f}")
    rho_expected = math.exp(-2.0) * math.sqrt(0.4)
    rho_err = abs(a2.value - rho_expected)
    _gate("criterion 1: spectral radius = e^-2 sqrt(0.4) within 1e-8",
          rho_err < 1e-8, f"rho={a2.value:.10f} expected={rho_expected:.10f}")
    _gate("criterion 1: both assumptions pass", a1.passed and a2.passed)
    _budget("criterion 1", elapsed, 1.0)


def test_criterion_2_periodic_component(model5, cert5, ts5):
    start = time.time()
    tol = 1e-8
    phi = BoundedSolutionEvaluator(model5, cert5, tol)
    s_grid = np.linspace(1.02, 10.98, 100)
    drift = phi.parts(s_grid + 5.0)[:, 0] - phi.parts(s_grid)[:, 0]
    worst_s = float(np.max(np.linalg.norm(drift, axis=1)))
    _gate("criterion 2: stride-periodicity of the periodic component < 1e-6",
          worst_s < 1e-6, f"max deviation {worst_s:.2e}")

    t_grid = np.concatenate([np.linspace(-3.95, 0.95, 50), np.linspace(4.05, 8.95, 50)])
    values = as_timescale_function(phi)(np.add.outer([0.0, ts5.period], t_grid))
    report = verify_periodic(values[..., 0, :], ts5.period, tol=1e-6)
    _gate("criterion 2: period-periodicity on the scale < 1e-6", report.passed,
          f"max deviation {report.metrics['max_shift_deviation']:.2e}")
    _budget("criterion 2", time.time() - start, 30.0)


def test_criterion_3_poisson_component(model5, cert5, ts5):
    start = time.time()
    returns = find_return_times(model5.sequence, (0, 20), 100_000, max_count=3)
    _gate("criterion 3: at least 3 return records, strictly decreasing defects",
          len(returns.entries) == 3
          and all(b < a for a, b in zip(returns.defects, returns.defects[1:])),
          "defects " + ", ".join(f"{d:.4f}" for d in returns.defects))

    parts = as_timescale_function(BoundedSolutionEvaluator(model5, cert5, 1e-8))
    grid = compact_grid(ts5, 1.0, 17.0, 0.05)
    values = parts(np.add.outer(ts5.period * np.array([0, *returns.zetas]), grid))
    report = verify_poisson(
        values[..., 1, :], returns, compact_lo=1.0, compact_hi=17.0, grid_step=0.05,
    )
    sups = [report.metrics[f"D_{i}"] for i in range(len(returns.entries))]
    monotone = all(sups[i + 1] <= 1.1 * sups[i] for i in range(len(sups) - 1))
    _gate("criterion 3: recurrence suprema non-increasing within 10%", monotone,
          "D = " + ", ".join(f"{d:.4f}" for d in sups))
    eps = 5.0 * returns.defects[-1] + 1e-6
    _gate("criterion 3: final supremum under 5*defect + 1e-6",
          sups[-1] <= eps, f"{sups[-1]:.4f} <= {eps:.4f}")
    _gate("criterion 3: report verdict", report.passed)
    _budget("criterion 3", time.time() - start, 120.0)


def test_criterion_4_asymptotic_stability(model5, cert5, ts5):
    start = time.time()
    rng = np.random.default_rng(2023)
    y0a = rng.uniform(-1.0, 1.0, 2)
    y0b = rng.uniform(-1.0, 1.0, 2)
    report = verify_stability(model5, cert5, y0a - y0b, 1.0, 10 * 8.0, 1e-3)
    slope = report.metrics["fitted_slope"]
    _gate("criterion 4: fitted contraction slope <= -0.44", slope <= -0.44,
          f"slope {slope:.4f}")
    _gate("criterion 4: certificate envelope dominates pointwise",
          report.metrics["envelope_min_margin"] >= 0.0,
          f"min margin {report.metrics['envelope_min_margin']:.2e}")
    _gate("criterion 4: report verdict", report.passed)
    _budget("criterion 4", time.time() - start, 10.0)


def test_criterion_5_oracle_equivalence(model5, cert5):
    start = time.time()
    evaluator = BoundedSolutionEvaluator(model5, cert5, tol=1e-8)
    horizon = evaluator.horizon
    worst = 0.0
    for s in np.linspace(1.37, 25.87, 50):
        s = float(s)
        convolution = evaluator.value(s)
        deep_past = integrate(model5, np.zeros(2), s - horizon, s, 2e-3).value(s)
        worst = max(worst, float(np.linalg.norm(convolution - deep_past)))
    _gate("criterion 5: convolution vs deep-past integration within 1e-6 at 50 points",
          worst < 1e-6, f"max disagreement {worst:.2e}")
    _budget("criterion 5", time.time() - start, 60.0)


def test_criterion_6_property_suites(model5, cert5, ts5):
    start = time.time()

    rng = np.random.default_rng(606)
    ks = rng.integers(-1000, 1001, size=10_000)
    offsets = rng.integers(0, 2 ** 20 + 1, size=10_000)
    ok = True
    for k, j in zip(ks, offsets):
        t = ts5.endpoint(2 * int(k)) - (ts5.stride * int(j)) / 2 ** 20
        if ts5.psi_inv(ts5.psi(t)) != t:
            ok = False
            break
    _gate("criterion 6: psi bijection exact on 10^4 points", ok)

    ok = True
    for _ in range(1000):
        r = float(rng.integers(-4000, 4000)) + rng.integers(0, 2 ** 20) / 2 ** 20
        s = r + float(rng.integers(0, 50)) + rng.integers(0, 2 ** 20) / 2 ** 20
        if ts5.count_impulses(r + 5.0, s + 5.0) != ts5.count_impulses(r, s):
            ok = False
            break
    _gate("criterion 6: impulse-count shift law exact on 10^3 pairs", ok)

    worst_cocycle = 0.0
    worst_shift = 0.0
    for _ in range(100):
        r = float(rng.uniform(-20.0, 20.0))
        q1, q2 = float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 10.0))
        U = matriciant(model5, r + q1 + q2, r)
        split = matriciant(model5, r + q1 + q2, r + q1) @ matriciant(model5, r + q1, r)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(U - split))))
        shifted = matriciant(model5, r + q1 + q2 + 5.0, r + 5.0)
        worst_shift = max(worst_shift, float(np.max(np.abs(U - shifted))))
    _gate("criterion 6: matriciant cocycle within 1e-10", worst_cocycle < 1e-10,
          f"{worst_cocycle:.2e}")
    _gate("criterion 6: matriciant period shift within 1e-10", worst_shift < 1e-10,
          f"{worst_shift:.2e}")

    violations = 0
    rs = np.linspace(1.0, 6.0, 200, endpoint=False)
    qs = np.linspace(0.0, 25.0, 200)
    for r in rs:
        for q in qs:
            norm = spectral_norm(matriciant(model5, float(r + q), float(r)))
            if norm > cert5.prefactor * math.exp(-cert5.decay_rate * q) * (1 + 1e-12):
                violations += 1
    _gate("criterion 6: decay certificate grid 200x200 with zero violations",
          violations == 0, f"{violations} violations")

    worst_inv = 0.0
    worst_comm = 0.0
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        worst_inv = max(
            worst_inv, float(np.max(np.abs(expm(M) @ expm(-M) - np.eye(3))))
        )
        N = 0.3 * M @ M - 0.5 * M
        worst_comm = max(
            worst_comm, float(np.max(np.abs(expm(M + N) - expm(M) @ expm(N))))
        )
    _gate("criterion 6: expm inverse identity within 1e-10", worst_inv < 1e-10,
          f"{worst_inv:.2e}")
    _gate("criterion 6: expm commuting product within 1e-10", worst_comm < 1e-10,
          f"{worst_comm:.2e}")

    grid = compact_grid(ts5, -4.0, 28.0, 0.1)
    theta = lift(BoundedSolutionEvaluator(model5, cert5, 1e-8), grid)
    sup_f = model5.forcing.sup_norm(ts5)
    sup_seq = model5.sequence.sup_norm(-2000, 2000).ceiling
    report = verify_bound(theta, cert5, sup_f, sup_seq)
    _gate("criterion 6: sup-norm bound satisfied", report.passed,
          f"max {report.metrics['max_solution_norm']:.3f} <= "
          f"bound {report.metrics['bound']:.3f}")
    _budget("criterion 6", time.time() - start, 60.0)


def test_criterion_7_degenerate_scenarios(model5_no_sequence, model5_no_forcing, ts5, tmp_path):
    # switched-off sequence: no recurrence component, pure periodic verdict
    cert = certify(model5_no_sequence)
    ev = BoundedSolutionEvaluator(model5_no_sequence, cert, 1e-8)
    grid = compact_grid(ts5, 1.0, 17.0, 0.25)
    _, theta2 = decompose(ev, grid)
    _gate("criterion 7: zero sequence forcing gives zero recurrence component",
          theta2.max_norm() < 1e-12, f"max {theta2.max_norm():.2e}")
    returns = find_return_times(model5_no_sequence.sequence, (0, 20), 1000, max_count=3)
    rng = np.random.default_rng(7)
    reports = verify_all(
        ev, returns, 1.0, 17.0, 0.25, y0=rng.uniform(-1, 1, 2) - rng.uniform(-1, 1, 2),
        stability_periods=5, step=1e-2,
    )
    _gate("criterion 7: degenerate recurrence suprema are identically zero",
          reports["poisson"].metrics["final_sup_difference"] == 0.0)
    deviation = reports["mpps"].metrics["recurrence_identity_deviation"]
    _gate("criterion 7: full-solution recurrence suprema match the zero component",
          deviation <= 2e-8, f"deviation {deviation:.2e}")
    _gate("criterion 7: pure periodic scenario passes the aggregate verdict",
          reports["mpps"].passed)

    # switched-off periodic forcing: no periodic component
    cert_nf = certify(model5_no_forcing)
    ev_nf = BoundedSolutionEvaluator(model5_no_forcing, cert_nf, 1e-8)
    theta1_nf, _ = decompose(ev_nf, grid)
    _gate("criterion 7: zero periodic forcing gives zero periodic component",
          theta1_nf.max_norm() < 1e-12, f"max {theta1_nf.max_norm():.2e}")

    # zero system matrix: second assumption fails, CLI exits 1
    cfg = load_config(
        bundled_example_path(),
        overrides=["matrix=[[0.0, 0.0], [0.0, 0.0]]"],
    )
    code = run("check", cfg, tmp_path)
    _gate("criterion 7: zero matrix fails the contraction check with exit 1",
          code == EXIT_VERIFICATION_FAILED, f"exit {code}")


def test_end_to_end_example_pipeline(tmp_path):
    # the bundled scenario runs the whole pipeline and passes verification
    start = time.time()
    cfg = load_config(bundled_example_path())
    code = run("example", cfg, tmp_path)
    produced = sorted(p.name for p in tmp_path.iterdir())
    _gate("bundled example: exit 0", code == 0, f"files {produced}")
    for name in ("check.json", "bounded.csv", "theta1.csv", "theta2.csv",
                 "returns.json", "verify.json"):
        _gate(f"bundled example: emits {name}", name in produced)
    print(f"[info] bundled example runtime {time.time() - start:.1f}s")
