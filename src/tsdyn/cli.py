"""Config-driven command line front end.

Usage::

    tsdyn <subcommand> --config <path> --out <dir> [--override key=value ...]

Subcommands
-----------
check      spectral assumption checks plus the decay certificate -> check.json
simulate   direct simulation on the time scale -> trajectory.csv
bounded    bounded-solution samples -> bounded.csv
decompose  periodic / Poisson components -> theta1.csv, theta2.csv
returns    return-time mining -> returns.json
verify     all verification reports -> verify.json
example    run the bundled two-dimensional logistic scenario end to end

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error or any other library error (every
:class:`~tsdyn.errors.TsdynError`).  Errors emit a one-line JSON record on
stderr.

Configuration is a single JSON document::

    {
      "timescale": {"theta": 1.0, "omega": 8.0, "delta": 3.0},
      "matrix": [[-0.4, 0.2], [-0.2, -0.4]],
      "forcing": [
        {"constant": 0.0, "harmonics": [{"n": 1, "cos": 1.0, "sin": 0.0}]},
        {"constant": 0.0, "harmonics": [{"n": 2, "cos": 0.0, "sin": 1.0}]}
      ],
      "gamma": {"kind": "logistic", "r": 3.9, "z0": 0.4, "k_min": -2000,
                "C": [1.0, 2.0]},
      "tolerances": {"eval_tol": 1e-8, "period_tol": 1e-6,
                     "poisson_eps": null, "grid_step": 0.05, "rk_step": 1e-3},
      "windows": {"t0": 0.0, "t_end": 40.0, "compact_lo": 1.0,
                  "compact_hi": 17.0, "return_window": [0, 20],
                  "zeta_max": 100000, "max_returns": 3,
                  "stability_periods": 10, "stability_seed": 2023,
                  "initial": [0.0, 0.0]}
    }

``gamma`` alternatively takes ``{"kind": "table", "values": {"0": [...]}}``.
Unknown fields anywhere are rejected.  ``poisson_eps: null`` selects the
empirical rule ``5 * final_defect + 1e-6``.

CSV files carry columns ``t, y_1..y_m, branch`` with 17 significant digits;
``branch`` is ``interior`` for regular samples and ``right_endpoint_value``
for the values attached to left interval endpoints (the state right after a
jump).  Reports serialize as ``{"kind", "metrics", "passed", "parameters"}``
objects; ``verify.json`` maps report names to these objects.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, dynamic, impulsive
from .errors import ConfigError, TsdynError
from .forcing import (
    ForcingComponent,
    Harmonic,
    LogisticSequence,
    TableSequence,
    TrigForcing,
    find_return_times,
)
from .impulsive import BoundedSolutionEvaluator, ImpulsiveModel
from .timescale import TimeScaleSpec

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_TOLERANCE_DEFAULTS = {
    "eval_tol": 1e-8,
    "period_tol": 1e-6,
    "poisson_eps": None,
    "grid_step": 0.05,
    "rk_step": 1e-3,
}
_WINDOW_DEFAULTS = {
    "t0": None,
    "t_end": None,
    "compact_lo": None,
    "compact_hi": None,
    "return_window": None,
    "zeta_max": 100_000,
    "max_returns": 3,
    "stability_periods": 10,
    "stability_seed": 2023,
    "initial": None,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: model ingredients plus tolerances and windows."""

    ts: TimeScaleSpec
    model: ImpulsiveModel
    tolerances: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)


def _require_mapping(raw, name: str, issues: list[str]) -> dict:
    if not isinstance(raw, dict):
        issues.append(f"{name} must be an object")
        return {}
    return raw


def _reject_unknown(raw: dict, allowed, name: str, issues: list[str]) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        issues.append(f"{name} has unknown fields: {sorted(unknown)}")


def _build_timescale(raw, issues) -> TimeScaleSpec | None:
    raw = _require_mapping(raw, "timescale", issues)
    _reject_unknown(raw, {"theta", "omega", "delta"}, "timescale", issues)
    try:
        return TimeScaleSpec(
            anchor=float(raw.get("theta", 0.0)),
            period=float(raw.get("omega", 0.0)),
            gap=float(raw.get("delta", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        issues.append(f"timescale: {exc}")
        return None


def _build_forcing(raw, period, issues) -> TrigForcing | None:
    if not isinstance(raw, list) or not raw:
        issues.append("forcing must be a nonempty list of components")
        return None
    comps = []
    for i, comp in enumerate(raw):
        comp = _require_mapping(comp, f"forcing[{i}]", issues)
        _reject_unknown(comp, {"constant", "harmonics"}, f"forcing[{i}]", issues)
        harmonics = []
        for j, h in enumerate(comp.get("harmonics", [])):
            h = _require_mapping(h, f"forcing[{i}].harmonics[{j}]", issues)
            _reject_unknown(h, {"n", "cos", "sin"}, f"forcing[{i}].harmonics[{j}]", issues)
            try:
                harmonics.append(
                    Harmonic(
                        n=h.get("n", 1),
                        cos_coeff=float(h.get("cos", 0.0)),
                        sin_coeff=float(h.get("sin", 0.0)),
                    )
                )
            except (TypeError, ValueError) as exc:
                issues.append(f"forcing[{i}].harmonics[{j}]: {exc}")
        try:
            comps.append(
                ForcingComponent(
                    constant=float(comp.get("constant", 0.0)), harmonics=tuple(harmonics)
                )
            )
        except (TypeError, ValueError) as exc:
            issues.append(f"forcing[{i}]: {exc}")
    if issues:
        return None
    try:
        return TrigForcing(period=period, components=tuple(comps))
    except (TypeError, ValueError) as exc:
        issues.append(f"forcing: {exc}")
        return None


def _build_sequence(raw, issues):
    raw = _require_mapping(raw, "gamma", issues)
    kind = raw.get("kind")
    if kind == "logistic":
        _reject_unknown(raw, {"kind", "r", "z0", "k_min", "C"}, "gamma", issues)
        try:
            return LogisticSequence(
                r=float(raw.get("r", 0.0)),
                z0=float(raw.get("z0", 0.0)),
                k_min=int(raw.get("k_min", -2000)),
                output_map=raw.get("C", [1.0]),
            )
        except (TypeError, ValueError) as exc:
            issues.append(f"gamma: {exc}")
            return None
    if kind == "table":
        _reject_unknown(raw, {"kind", "values"}, "gamma", issues)
        values = raw.get("values")
        if not isinstance(values, dict):
            issues.append("gamma.values must be an object mapping indices to vectors")
            return None
        try:
            return TableSequence({int(k): v for k, v in values.items()})
        except (TypeError, ValueError) as exc:
            issues.append(f"gamma: {exc}")
            return None
    issues.append("gamma.kind must be 'logistic' or 'table'")
    return None


def _merged_defaults(raw, defaults, name, issues) -> dict:
    raw = _require_mapping(raw, name, issues) if raw is not None else {}
    _reject_unknown(raw, defaults, name, issues)
    merged = dict(defaults)
    merged.update(raw)
    return merged


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw configuration mapping into a scenario."""
    issues: list[str] = []
    raw = _require_mapping(raw, "config", issues)
    _reject_unknown(
        raw, {"timescale", "matrix", "forcing", "gamma", "tolerances", "windows"},
        "config", issues,
    )
    ts = _build_timescale(raw.get("timescale", {}), issues)
    matrix = raw.get("matrix")
    if not isinstance(matrix, list):
        issues.append("matrix must be a list of rows")
        matrix = [[0.0]]
    forcing = None
    sequence = _build_sequence(raw.get("gamma", {}), issues)
    if ts is not None:
        forcing = _build_forcing(raw.get("forcing", []), ts.period, issues)
    tolerances = _merged_defaults(raw.get("tolerances"), _TOLERANCE_DEFAULTS, "tolerances", issues)
    windows = _merged_defaults(raw.get("windows"), _WINDOW_DEFAULTS, "windows", issues)
    if issues:
        raise ConfigError(issues)
    try:
        model = ImpulsiveModel(
            matrix=np.asarray(matrix, dtype=float), ts=ts, forcing=forcing, sequence=sequence
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"model: {exc}"]) from exc
    return ScenarioConfig(ts=ts, model=model, tolerances=tolerances, windows=windows)


def _apply_override(raw: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError([f"override {spec!r} is not of the form key=value"])
    path, text = spec.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    keys = path.split(".")
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError([f"override path {path!r} crosses a non-object field"])
    node[keys[-1]] = value


def load_config(path, overrides=()) -> ScenarioConfig:
    """Load, override, and validate a JSON scenario file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    for spec in overrides:
        _apply_override(raw, spec)
    return parse_config(raw)


def bundled_example_path():
    """Path of the packaged two-dimensional logistic scenario."""
    return resources.files("tsdyn").joinpath("data/example5.json")


# ----------------------------------------------------------------------
# output helpers


def _format_cell(x: float) -> str:
    return format(float(x), ".17g")


def write_solution_csv(path: Path, sol: dynamic.TimeScaleSolution) -> None:
    """CSV with columns ``t, y_1..y_m, branch`` at 17 significant digits."""
    m = sol.dimension
    rows = [(float(t), sol.y[i], "interior") for i, t in enumerate(sol.t)]
    for k, v in sol.endpoint_values.items():
        rows.append((sol.ts.endpoint(2 * k + 1), v, "right_endpoint_value"))
    rows.sort(key=lambda row: (row[0], row[2] != "right_endpoint_value"))
    header = ",".join(["t"] + [f"y_{i + 1}" for i in range(m)] + ["branch"])
    lines = [header]
    for t, y, branch in rows:
        lines.append(",".join([_format_cell(t)] + [_format_cell(v) for v in y] + [branch]))
    path.write_text("\n".join(lines) + "\n")


def read_solution_csv(path: Path):
    """Parse a solution CSV back into (t, y, branch) arrays."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    m = len(header) - 2
    ts, ys, branches = [], [], []
    for line in lines[1:]:
        parts = line.split(",")
        ts.append(float(parts[0]))
        ys.append([float(v) for v in parts[1: 1 + m]])
        branches.append(parts[-1])
    return np.asarray(ts), np.asarray(ys), branches


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# subcommands


def _cmd_check(cfg: ScenarioConfig, out: Path) -> int:
    a1 = impulsive.check_invertible_jump(cfg.model)
    a2 = impulsive.check_contractive_period(cfg.model)
    payload = {
        "A1": {"passed": a1.passed, "det": a1.value},
        "A2": {"passed": a2.passed, "spectral_radius": a2.value},
        "certificate": None,
    }
    ok = a1.passed and a2.passed
    if ok:
        cert = impulsive.certify(cfg.model)
        payload["certificate"] = {
            "floquet_radius": cert.floquet_radius,
            "decay_rate": cert.decay_rate,
            "prefactor": cert.prefactor,
            "grid_resolution": cert.grid_resolution,
        }
    _write_json(out / "check.json", payload)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _initial_state(cfg: ScenarioConfig) -> np.ndarray:
    initial = cfg.windows.get("initial")
    if initial is None:
        return np.zeros(cfg.model.dimension)
    arr = np.asarray(initial, dtype=float)
    if arr.shape != (cfg.model.dimension,):
        raise ConfigError([f"windows.initial must have length {cfg.model.dimension}"])
    return arr


def _sim_window(cfg: ScenarioConfig) -> tuple[float, float]:
    t0, t_end = cfg.windows.get("t0"), cfg.windows.get("t_end")
    if t0 is None or t_end is None:
        raise ConfigError(["windows.t0 and windows.t_end are required"])
    return float(t0), float(t_end)


def _cmd_simulate(cfg: ScenarioConfig, out: Path) -> int:
    t0, t_end = _sim_window(cfg)
    sol = dynamic.simulate_dynamic(
        cfg.model, _initial_state(cfg), t0, t_end, cfg.tolerances["rk_step"]
    )
    write_solution_csv(out / "trajectory.csv", sol)
    return EXIT_OK


def _scenario_grid(cfg: ScenarioConfig) -> list[float]:
    t0, t_end = _sim_window(cfg)
    return analysis.compact_grid(cfg.ts, t0, t_end, cfg.tolerances["grid_step"])


def _cmd_bounded(cfg: ScenarioConfig, out: Path) -> int:
    cert = impulsive.certify(cfg.model)
    evaluator = BoundedSolutionEvaluator(cfg.model, cert, cfg.tolerances["eval_tol"])
    sol = dynamic.lift(cfg.model, evaluator, _scenario_grid(cfg))
    write_solution_csv(out / "bounded.csv", sol)
    return EXIT_OK


def _cmd_decompose(cfg: ScenarioConfig, out: Path) -> int:
    cert = impulsive.certify(cfg.model)
    theta1, theta2 = dynamic.decompose(
        cfg.model, cert, _scenario_grid(cfg), cfg.tolerances["eval_tol"]
    )
    write_solution_csv(out / "theta1.csv", theta1)
    write_solution_csv(out / "theta2.csv", theta2)
    return EXIT_OK


def _mine_returns(cfg: ScenarioConfig, cert=None):
    window = cfg.windows.get("return_window")
    if window is None:
        # default: the interval indices spanned by the compact window, padded
        # below by the decay-based depth when a certificate is available
        lo_t, hi_t = cfg.windows.get("compact_lo"), cfg.windows.get("compact_hi")
        if lo_t is None or hi_t is None:
            raise ConfigError(
                ["windows.return_window or windows.compact_lo/compact_hi are required"]
            )
        lo = math.floor((float(lo_t) - cfg.ts.anchor) / cfg.ts.period)
        hi = math.ceil((float(hi_t) - cfg.ts.anchor) / cfg.ts.period)
        pad = 0
        if cert is not None:
            sup_seq = impulsive._sequence_ceiling(cfg.model.sequence)
            pad = analysis._window_padding(cert, cfg.ts, sup_seq, 1e-3)
        window = (lo - pad, hi + pad)
    return find_return_times(
        cfg.model.sequence,
        (int(window[0]), int(window[1])),
        int(cfg.windows["zeta_max"]),
        int(cfg.windows["max_returns"]),
    )


def _cmd_returns(cfg: ScenarioConfig, out: Path) -> int:
    returns = _mine_returns(cfg)
    _write_json(out / "returns.json", returns.to_dict())
    return EXIT_OK


def _cmd_verify(cfg: ScenarioConfig, out: Path) -> int:
    model, ts = cfg.model, cfg.ts
    tol = cfg.tolerances["eval_tol"]
    a1 = impulsive.check_invertible_jump(model)
    a2 = impulsive.check_contractive_period(model)
    if not (a1.passed and a2.passed):
        _write_json(
            out / "verify.json",
            {
                "assumptions": {
                    "A1": {"passed": a1.passed, "det": a1.value},
                    "A2": {"passed": a2.passed, "spectral_radius": a2.value},
                }
            },
        )
        return EXIT_VERIFICATION_FAILED
    cert = impulsive.certify(model)

    lo = cfg.windows.get("compact_lo")
    hi = cfg.windows.get("compact_hi")
    if lo is None or hi is None:
        raise ConfigError(["windows.compact_lo and windows.compact_hi are required"])
    lo, hi = float(lo), float(hi)
    grid_step = cfg.tolerances["grid_step"]
    grid = analysis.compact_grid(ts, lo, hi, grid_step)
    shifted = analysis.compact_grid(ts, lo + ts.period, hi + ts.period, grid_step)

    full = BoundedSolutionEvaluator(model, cert, tol)
    periodic_part = BoundedSolutionEvaluator(model, cert, tol, include_sequence=False)
    poisson_part = BoundedSolutionEvaluator(model, cert, tol, include_periodic=False)

    theta = dynamic.lift(model, full, grid)
    theta1 = dynamic.lift(model, periodic_part, sorted(set(grid) | set(shifted)))

    report_periodic = analysis.verify_periodic(theta1, ts, cfg.tolerances["period_tol"])
    returns = _mine_returns(cfg, cert)
    eps = cfg.tolerances["poisson_eps"]
    report_poisson = analysis.verify_poisson(
        dynamic.as_timescale_function(model, poisson_part),
        ts, returns, lo, hi, grid_step, eps=eps,
    )
    report_poisson_full = analysis.verify_poisson(
        dynamic.as_timescale_function(model, full),
        ts, returns, lo, hi, grid_step,
        eps=report_poisson.parameters["eps"] + 2.0 * tol,
    )
    sup_f = model.forcing.sup_norm(ts)
    sup_seq = impulsive._sequence_ceiling(model.sequence)
    report_bound = analysis.verify_bound(theta, cert, sup_f, sup_seq)

    rng = np.random.default_rng(int(cfg.windows["stability_seed"]))
    y0a = rng.uniform(-1.0, 1.0, model.dimension)
    y0b = rng.uniform(-1.0, 1.0, model.dimension)
    t0_stab = ts.anchor  # right endpoint of interval 0: inside the psi domain
    horizon = float(cfg.windows["stability_periods"]) * ts.period
    report_stability = analysis.verify_stability(
        model, cert, y0a, y0b, t0_stab, horizon, cfg.tolerances["rk_step"]
    )

    aggregate = analysis.mpps_report(
        report_periodic, report_poisson, report_bound, report_stability,
        poisson_full=report_poisson_full, tol=tol,
    )
    _write_json(
        out / "verify.json",
        {
            "periodicity": report_periodic.to_dict(),
            "poisson": report_poisson.to_dict(),
            "poisson_full_solution": report_poisson_full.to_dict(),
            "bound": report_bound.to_dict(),
            "stability": report_stability.to_dict(),
            "mpps": aggregate.to_dict(),
        },
    )
    return EXIT_OK if aggregate.passed else EXIT_VERIFICATION_FAILED


def _cmd_example(cfg: ScenarioConfig, out: Path) -> int:
    status = _cmd_check(cfg, out)
    if status != EXIT_OK:
        return status
    _cmd_bounded(cfg, out)
    _cmd_decompose(cfg, out)
    _cmd_returns(cfg, out)
    return _cmd_verify(cfg, out)


_SUBCOMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "bounded": _cmd_bounded,
    "decompose": _cmd_decompose,
    "returns": _cmd_returns,
    "verify": _cmd_verify,
    "example": _cmd_example,
}


def run(subcommand: str, config: ScenarioConfig, out_dir) -> int:
    """Run one subcommand against a validated configuration."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _SUBCOMMANDS[subcommand](config, out)


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsdyn",
        description="simulate and certify linear dynamic equations on a periodic time scale",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="path to a JSON scenario (defaults to the bundled example)")
    parser.add_argument("--out", default="tsdyn-out", help="output directory")
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="dotted-path config override, value parsed as JSON when possible",
    )
    args = parser.parse_args(argv)
    try:
        if args.config is None:
            if args.subcommand != "example":
                raise ConfigError(["--config is required (only 'example' runs without it)"])
            config = load_config(bundled_example_path(), args.override)
        else:
            config = load_config(args.config, args.override)
        return run(args.subcommand, config, args.out)
    except (TsdynError, ValueError, KeyError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
