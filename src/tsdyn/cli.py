"""Config-driven command line front end.

Usage::

    tsdyn <subcommand> --config <path> --out <dir> [--override key=value ...]

Subcommands
-----------
check      spectral assumption checks plus the decay certificate -> check.json
simulate   RK4 simulation read back on the time scale -> trajectory.csv
bounded    bounded-solution samples -> bounded.csv
decompose  periodic / Poisson components -> theta1.csv, theta2.csv
returns    return-time mining -> returns.json
verify     all verification reports -> verify.json
example    run the bundled two-dimensional logistic scenario end to end

Each derived stage of the pipeline (the assumption checks, the decay
certificate, the bounded-solution evaluator and the return times) is computed
once per config, on first use, and shared by every subcommand run on that
config: ``example`` certifies once, builds one evaluator and scans one return
window once, so ``returns.json`` and ``verify.json`` report the same shifts.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error or any other error the library raises.  Errors emit a
one-line JSON record on stderr that names the exception type.  A run computes
every output before it writes any: an error (exit 2) leaves no file, not even
the output directory, and a failed check (exit 1) writes its report.

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

``gamma`` alternatively takes ``{"kind": "table", "values": {"0": [...]}}``
over one contiguous range of indices.  Unknown fields anywhere are rejected.
``poisson_eps: null`` selects the empirical rule ``5 * final_defect + 1e-6``;
``return_window: null`` mines the compact window's interval span extended
below by the evaluator's ``depth``.

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
from array import array
from dataclasses import asdict, dataclass, field
from functools import cached_property
from importlib import resources
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import analysis, dynamic, impulsive
from .errors import ConfigError
from .forcing import (
    ForcingComponent,
    Harmonic,
    LogisticSequence,
    ReturnTimeSet,
    TableSequence,
    TrigForcing,
    find_return_times,
)
from .impulsive import BoundedSolutionEvaluator, ImpulsiveModel, StabilityCert
from .timescale import TimeScaleSpec

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

_CSV_CHUNK_ROWS = 4096


def _real(v) -> float:
    """A finite number, not a bool, as a float."""
    if isinstance(v, bool) or not isinstance(v, Real) or not math.isfinite(v):
        raise ValueError("must be a finite number")
    return float(v)


def _integer(v) -> int:
    """A number with a whole value, not a bool, as an int."""
    if isinstance(v, bool) or not isinstance(v, Real) or not float(v).is_integer():
        raise ValueError("must be an integer")
    return int(v)


def _count(v) -> int:
    """A whole number of at least 1, as an int."""
    n = _integer(v)
    if n < 1:
        raise ValueError("must be an integer >= 1")
    return n


def _vector(convert, length=None):
    """A list converted entry by entry into a tuple; ``length`` pins its size."""
    def converted(v):
        if not isinstance(v, (list, tuple)) or length not in (None, len(v)):
            raise ValueError("must be a list" + (f" of {length} numbers" if length else ""))
        return tuple(map(convert, v))
    return converted


# The converter and the default of each tolerance and window; a field whose
# default is None may be left out or null.
_TOLERANCES = {
    "eval_tol": (_real, 1e-8),
    "period_tol": (_real, 1e-6),
    "poisson_eps": (_real, None),
    "grid_step": (_real, 0.05),
    "rk_step": (_real, 1e-3),
}
_WINDOWS = {
    "t0": (_real, None),
    "t_end": (_real, None),
    "compact_lo": (_real, None),
    "compact_hi": (_real, None),
    "return_window": (_vector(_integer, 2), None),
    "zeta_max": (_count, 100_000),
    "max_returns": (_count, 3),
    "stability_periods": (_real, 10.0),
    "stability_seed": (_integer, 2023),
    "initial": (_vector(_real), None),
}
_TIMESCALE = {"theta": (_real, 0.0), "omega": (_real, 0.0), "delta": (_real, 0.0)}
# a component's harmonics are a list here, each entry converted as a _HARMONIC
_COMPONENT = {"constant": (_real, 0.0), "harmonics": (_vector(lambda h: h), ())}
_HARMONIC = {"n": (_integer, 1), "cos": (_real, 0.0), "sin": (_real, 0.0)}
_LOGISTIC = {
    "r": (_real, 0.0), "z0": (_real, 0.0), "k_min": (_integer, -2000),
    "C": (_vector(_real), (1.0,)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: model ingredients plus tolerances and windows.

    The derived stages below are computed on first use and kept, so each is
    computed once per config however many subcommands read it.  They depend
    only on the fields, which is why :func:`parse_config` hands out the
    tolerances and windows as read-only mappings.  The kept records are
    shared: read them, never change them.  Each stage has one value per
    config: the return times, too, are mined on one window, which ``returns``
    and ``verify`` both read.
    """

    model: ImpulsiveModel
    tolerances: Mapping = field(default_factory=dict)
    windows: Mapping = field(default_factory=dict)

    @property
    def ts(self) -> TimeScaleSpec:
        return self.model.ts

    @cached_property
    def assumptions(self) -> tuple[bool, dict]:
        """Both spectral assumption checks: joint verdict and the JSON record."""
        a1 = impulsive.check_invertible_jump(self.model)
        a2 = impulsive.check_contractive_period(self.model)
        return a1.passed and a2.passed, {
            "A1": {"passed": a1.passed, "det": a1.value, "rcond": self.model.jump_rcond},
            "A2": {"passed": a2.passed, "spectral_radius": a2.value},
        }

    @cached_property
    def certificate(self) -> StabilityCert:
        """The decay certificate ``(N, lambda)`` of the model."""
        return impulsive.certify(self.model)

    @cached_property
    def evaluator(self) -> BoundedSolutionEvaluator:
        """The bounded-solution evaluator at ``tolerances.eval_tol``."""
        return BoundedSolutionEvaluator(self.model, self.certificate, self.tolerances["eval_tol"])

    @cached_property
    def returns(self) -> ReturnTimeSet:
        """The return times mined over ``windows.return_window``.

        A null window is the interval span of the compact window extended
        below by ``evaluator.depth`` whole gaps, so it holds every sequence
        term the evaluator reads on the compact grid.  A window too wide to
        scan, or a sequence too short for it, is a :class:`ConfigError` that
        names the settings.
        """
        window, zeta_max = self.windows["return_window"], self.windows["zeta_max"]
        max_returns, seq = self.windows["max_returns"], self.model.sequence
        if window is None:
            shown = "null"
            compact = _required(self, "compact_lo", "compact_hi")
            lo, hi = self.ts.interval_span(*compact)
            window = (lo - self.evaluator.depth, hi)
            setting = (
                "windows.return_window=null mines the interval span of windows.compact_lo="
                f"{compact[0]} to windows.compact_hi={compact[1]}: {hi - lo + 1:.6g} intervals"
            )
        else:
            shown = list(window)
            setting = f"windows.return_window={shown} holds {window[1] - window[0] + 1:.6g} indices"

        def too_many(limit: str) -> ConfigError:
            return ConfigError([f"{setting}, too many to {limit}"])

        # the scan holds the window's float terms as one array, and its later
        # terms a block of shifts at a time, whatever zeta_max
        if 8 * (window[1] + 1 - window[0]) > np.iinfo(np.intp).max:
            raise too_many("index")
        try:
            return find_return_times(seq, window, zeta_max, max_returns)
        except MemoryError as err:
            raise too_many("hold") from err
        except KeyError as err:
            raise ConfigError([
                f"windows.return_window={shown} and windows.zeta_max={zeta_max} read the "
                f"sequence from index {window[0]} to {window[1] + zeta_max}, but {err.args[0]}"
            ]) from err


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
    section = _converted(raw, _TIMESCALE, "timescale", issues)
    if section is None:
        return None
    try:
        return TimeScaleSpec(anchor=section["theta"], period=section["omega"], gap=section["delta"])
    except (TypeError, ValueError) as exc:
        issues.append(f"timescale: {exc}")
        return None


def _build_forcing(raw, period, issues) -> TrigForcing | None:
    if not isinstance(raw, list) or not raw:
        issues.append("forcing must be a nonempty list of components")
        return None
    comps = []
    for i, comp in enumerate(raw):
        comp = _converted(comp, _COMPONENT, f"forcing[{i}]", issues)
        harmonics = [
            _converted(h, _HARMONIC, f"forcing[{i}].harmonics[{j}]", issues)
            for j, h in enumerate(comp["harmonics"] if comp else ())
        ]
        if comp is None or None in harmonics:
            continue
        try:
            comps.append(ForcingComponent(
                constant=comp["constant"],
                harmonics=tuple(Harmonic(h["n"], h["cos"], h["sin"]) for h in harmonics),
            ))
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
        fields = {k: v for k, v in raw.items() if k != "kind"}
        section = _converted(fields, _LOGISTIC, "gamma", issues)
        if section is None:
            return None
        try:
            return LogisticSequence(
                section["r"], section["z0"], section["k_min"], output_map=section["C"]
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
            return TableSequence({int(k): _vector(_real)(v) for k, v in values.items()})
        except (TypeError, ValueError) as exc:
            issues.append(f"gamma.values {exc}")
            return None
    issues.append("gamma.kind must be 'logistic' or 'table'")
    return None


def _converted(raw, fields, name, issues) -> Mapping | None:
    """One config section with its defaults filled in, each value converted
    once; a value that does not convert is an issue naming its field, and
    leaves the section None."""
    raw = _require_mapping(raw, name, issues)
    _reject_unknown(raw, fields, name, issues)
    section = {}
    for key, (convert, default) in fields.items():
        value = raw.get(key, default)
        try:
            section[key] = value if value is None and default is None else convert(value)
        except (ValueError, OverflowError) as exc:
            issues.append(f"{name}.{key} {exc}, got {value!r}")
    if len(section) < len(fields):
        return None
    return MappingProxyType(section)  # a config's kept stages must not go stale


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a raw configuration mapping into a scenario."""
    issues: list[str] = []
    raw = _require_mapping(raw, "config", issues)
    _reject_unknown(
        raw, {"timescale", "matrix", "forcing", "gamma", "tolerances", "windows"},
        "config", issues,
    )
    ts = _build_timescale(raw.get("timescale", {}), issues)
    try:
        matrix = _vector(_vector(_real))(raw.get("matrix"))
    except ValueError:
        issues.append(f"matrix must be a list of rows of numbers, got {raw.get('matrix')!r}")
    forcing = None
    sequence = _build_sequence(raw.get("gamma", {}), issues)
    if ts is not None:
        forcing = _build_forcing(raw.get("forcing", []), ts.period, issues)
    tolerances = _converted(raw.get("tolerances", {}), _TOLERANCES, "tolerances", issues)
    windows = _converted(raw.get("windows", {}), _WINDOWS, "windows", issues)
    if issues:
        raise ConfigError(issues)
    try:
        model = ImpulsiveModel(
            matrix=np.asarray(matrix, dtype=float), ts=ts, forcing=forcing, sequence=sequence
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"model: {exc}"]) from exc
    if windows["initial"] is not None and len(windows["initial"]) != model.dimension:
        raise ConfigError([f"windows.initial must have length {model.dimension}"])
    return ScenarioConfig(model=model, tolerances=tolerances, windows=windows)


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
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):  # the config itself, or a field on the path
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


def write_solution_csv(path: Path, sol: dynamic.TimeScaleSolution) -> None:
    """CSV with columns ``t, y_1..y_m, branch`` at 17 significant digits.

    Rows are sorted by ``t``, a right-endpoint value row before an interior
    row at the same ``t``, and written a chunk of rows per ``%`` format.
    """
    m = sol.dimension
    keys = sorted(sol.endpoint_values)
    t_endpoint = sol.ts.endpoint(2 * np.array(keys, dtype=np.int64) + 1)
    # the interior samples increase strictly, so a merge places each endpoint
    # row in front of the first interior row at or after its t; no sort
    endpoint_rows = np.searchsorted(sol.t, t_endpoint) + np.arange(len(keys))
    is_endpoint = np.zeros(sol.t.size + len(keys), dtype=bool)
    is_endpoint[endpoint_rows] = True
    table = np.empty((is_endpoint.size, m + 1))
    table[endpoint_rows, 0] = t_endpoint
    table[endpoint_rows, 1:] = np.reshape([sol.endpoint_values[k] for k in keys], (-1, m))
    table[~is_endpoint, 0] = sol.t
    table[~is_endpoint, 1:] = sol.y
    flags = is_endpoint.tolist()
    cells = "%.17g," * (m + 1)
    row_formats = (cells + "interior\n", cells + "right_endpoint_value\n")
    with open(path, "w") as handle:
        handle.write(",".join(["t"] + [f"y_{i + 1}" for i in range(m)] + ["branch"]) + "\n")
        # a chunk at a time keeps the Python floats of .tolist() few; its
        # row formats join into one, applied by one % to all its cells
        for lo in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk_format = "".join([row_formats[e] for e in flags[lo:lo + _CSV_CHUNK_ROWS]])
            handle.write(chunk_format % tuple(table[lo:lo + _CSV_CHUNK_ROWS].ravel().tolist()))


def read_solution_csv(path: Path):
    """Parse a solution CSV back into (t, y, branch) arrays, line by line."""
    values = array("d")
    branches: list[str] = []
    with open(path) as handle:
        m = len(next(handle).split(",")) - 2
        for line in handle:
            *cells, branch = line.rstrip("\n").split(",")
            if branch:  # skip blank lines
                values.extend(map(float, cells))
                branches.append(sys.intern(branch))
    table = np.array(values).reshape(-1, m + 1)
    return table[:, 0], table[:, 1:], branches


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# subcommands: each maps a config to its verdict and its outputs, a file name
# to a solution (.csv) or a JSON-able dict (.json); run writes them


def _cmd_check(cfg: ScenarioConfig) -> tuple[bool, dict]:
    ok, assumptions = cfg.assumptions
    certificate = asdict(cfg.certificate) if ok else None
    return ok, {"check.json": {**assumptions, "certificate": certificate}}


def _required(cfg: ScenarioConfig, *names: str) -> list:
    """The windows a subcommand reads; a config may leave out the others."""
    values = [cfg.windows[name] for name in names]
    if None in values:
        raise ConfigError([" and ".join(f"windows.{name}" for name in names) + " are required"])
    return values


def _cmd_simulate(cfg: ScenarioConfig) -> tuple[bool, dict]:
    t0, t_end = _required(cfg, "t0", "t_end")
    initial = cfg.windows["initial"]
    y0 = np.zeros(cfg.model.dimension) if initial is None else initial
    sol = dynamic.simulate_dynamic(cfg.model, y0, t0, t_end, cfg.tolerances["rk_step"])
    return True, {"trajectory.csv": sol}


def _scenario_grid(cfg: ScenarioConfig) -> np.ndarray:
    t0, t_end = _required(cfg, "t0", "t_end")
    return analysis.compact_grid(cfg.ts, t0, t_end, cfg.tolerances["grid_step"])


def _cmd_bounded(cfg: ScenarioConfig) -> tuple[bool, dict]:
    return True, {"bounded.csv": dynamic.lift(cfg.evaluator, _scenario_grid(cfg))}


def _cmd_decompose(cfg: ScenarioConfig) -> tuple[bool, dict]:
    theta1, theta2 = dynamic.decompose(cfg.evaluator, _scenario_grid(cfg))
    return True, {"theta1.csv": theta1, "theta2.csv": theta2}


def _cmd_returns(cfg: ScenarioConfig) -> tuple[bool, dict]:
    return True, {"returns.json": cfg.returns.to_dict()}


def _cmd_verify(cfg: ScenarioConfig) -> tuple[bool, dict]:
    ok, assumptions = cfg.assumptions
    if not ok:
        return False, {"verify.json": {"assumptions": assumptions}}
    lo, hi = _required(cfg, "compact_lo", "compact_hi")
    rng = np.random.default_rng(cfg.windows["stability_seed"])
    y0a, y0b = rng.uniform(-1.0, 1.0, (2, cfg.model.dimension))  # two starts, one per row
    tols = cfg.tolerances
    reports = analysis.verify_all(
        cfg.evaluator, cfg.returns, lo, hi, tols["grid_step"], tols["period_tol"],
        tols["poisson_eps"], y0a - y0b, cfg.windows["stability_periods"], tols["rk_step"],
    )
    return reports["mpps"].passed, {
        "verify.json": {name: report.to_dict() for name, report in reports.items()},
    }


def _cmd_example(cfg: ScenarioConfig) -> tuple[bool, dict]:
    passed, outputs = _cmd_check(cfg)
    if passed:
        for stage in (_cmd_bounded, _cmd_decompose, _cmd_returns, _cmd_verify):
            passed, stage_outputs = stage(cfg)  # only verify's verdict can fail
            outputs.update(stage_outputs)
    return passed, outputs


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
    """Run one subcommand on a validated configuration; write once all is computed."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    passed, outputs = _SUBCOMMANDS[subcommand](config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in outputs.items():
        if name.endswith(".csv"):
            write_solution_csv(out / name, payload)
        else:
            _write_json(out / name, payload)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


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
    except Exception as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
