import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tsdyn import (
    BoundedSolutionEvaluator,
    ConfigError,
    TrigForcing,
    as_timescale_function,
    cli,
    compact_grid,
    errors,
    impulsive,
    verify_all,
)
from tsdyn.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    bundled_example_path,
    load_config,
    main,
    parse_config,
    read_solution_csv,
    run,
    write_solution_csv,
)


LIBRARY_ERRORS = sorted(
    (
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.TsdynError)
        and cls is not errors.TsdynError
    ),
    key=lambda cls: cls.__name__,
)


def _capped_main(argv) -> tuple[int, str]:
    """The CLI's exit code and stderr, run in a child whose address space is
    capped at about 3 GB, so a large allocation fails instead of filling the
    machine's memory."""
    def cap() -> None:
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024, hard))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-m", "tsdyn.cli", *argv], env=env,
                           preexec_fn=cap, capture_output=True, text=True, timeout=120)
    return child.returncode, child.stderr


@pytest.fixture()
def example_raw():
    return json.loads(Path(bundled_example_path()).read_text())


@pytest.fixture()
def example_file(tmp_path, example_raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(example_raw))
    return path


class TestConfigLoading:
    def test_bundled_example(self):
        cfg = load_config(bundled_example_path())
        assert cfg.ts.anchor == 1.0 and cfg.ts.period == 8.0 and cfg.ts.gap == 3.0
        assert np.allclose(cfg.model.matrix, [[-0.4, 0.2], [-0.2, -0.4]])
        assert cfg.model.sequence.r == 3.9 and cfg.model.sequence.z0 == 0.4
        assert cfg.tolerances["eval_tol"] == 1e-8
        assert cfg.windows["zeta_max"] == 100_000

    def test_gap_exceeding_period_rejected(self, example_raw):
        example_raw["timescale"]["delta"] = 9.0
        with pytest.raises(ConfigError, match="gap < period"):
            parse_config(example_raw)

    def test_normalization_rejected(self, example_raw):
        example_raw["timescale"]["theta"] = 10.0  # 10 + 3 - 8 = 5 >= 0
        with pytest.raises(ConfigError, match="normalization"):
            parse_config(example_raw)

    def test_unknown_fields_rejected(self, example_raw):
        example_raw["extra"] = 1
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config(example_raw)
        del example_raw["extra"]
        example_raw["tolerances"]["mystery"] = 2
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config(example_raw)

    def test_table_sequence(self, example_raw):
        example_raw["gamma"] = {
            "kind": "table",
            "values": {str(k): [0.1, 0.2] for k in range(-20, 40)},
        }
        cfg = parse_config(example_raw)
        assert np.allclose(cfg.model.sequence.term(0), [0.1, 0.2])

    def test_table_with_hole_rejected(self, example_raw):
        values = {str(k): [0.1, 0.2] for k in range(-20, 40) if k != 5}
        example_raw["gamma"] = {"kind": "table", "values": values}
        with pytest.raises(ConfigError, match=r"gamma\.values .*index 5 is missing"):
            parse_config(example_raw)

    def test_overrides(self, example_file):
        cfg = load_config(example_file, ["tolerances.rk_step=0.01", "gamma.z0=0.5"])
        assert cfg.tolerances["rk_step"] == 0.01
        assert cfg.model.sequence.z0 == 0.5

    def test_harmonic_order_is_an_integer(self, example_raw):
        example_raw["forcing"][0]["harmonics"][0]["n"] = True  # not the order 1
        with pytest.raises(ConfigError, match=r"harmonics\[0\]\.n must be an integer"):
            parse_config(example_raw)

    def test_issue_list_collects_errors(self, example_raw):
        example_raw["timescale"]["delta"] = 9.0
        example_raw["gamma"] = {"kind": "nope"}
        with pytest.raises(ConfigError) as err:
            parse_config(example_raw)
        assert len(err.value.issues) >= 2


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path, model5, cert5, ts5):
        from tsdyn import BoundedSolutionEvaluator, compact_grid, lift

        grid = compact_grid(ts5, 0.0, 14.0, 0.5)
        sol = lift(BoundedSolutionEvaluator(model5, cert5, 1e-8), grid)
        path = tmp_path / "sol.csv"
        write_solution_csv(path, sol)
        t, y, branches = read_solution_csv(path)
        interior = [i for i, b in enumerate(branches) if b == "interior"]
        assert len(interior) == sol.t.size
        assert np.array_equal(t[interior], sol.t)
        assert np.array_equal(y[interior], sol.y)
        endpoint_rows = [i for i, b in enumerate(branches) if b == "right_endpoint_value"]
        assert len(endpoint_rows) == len(sol.endpoint_values)

    def test_header(self, tmp_path, ts5):
        from tsdyn import TimeScaleSolution

        sol = TimeScaleSolution(
            ts=ts5, t=np.array([0.0]), y=np.array([[1.0, 2.0]]), provenance="lifted"
        )
        path = tmp_path / "sol.csv"
        write_solution_csv(path, sol)
        assert path.read_text().splitlines()[0] == "t,y_1,y_2,branch"

    def test_bytes_pinned_to_format(self, tmp_path, ts5):
        from tsdyn import TimeScaleSolution

        tiny, big = 5e-324, np.finfo(float).max
        sol = TimeScaleSolution(
            ts=ts5,
            t=np.array([-1.0, 0.5, 4.0, 6.0]),  # 4.0 is the left endpoint after jump 0
            y=np.array([[0.0, -0.0], [tiny, -tiny], [big, -big], [1.0 / 3.0, 2.2e-308]]),
            endpoint_values={0: np.array([-1.0 / 3.0, 1e22]), -1: np.array([0.1, -7.0])},
            provenance="lifted",
        )
        rows = [(t, y, "interior") for t, y in zip(sol.t.tolist(), sol.y)]
        rows += [(ts5.endpoint(2 * k + 1), y, "right_endpoint_value")
                 for k, y in sol.endpoint_values.items()]
        rows.sort(key=lambda row: (row[0], row[2] != "right_endpoint_value"))
        expected = "t,y_1,y_2,branch\n" + "".join(
            ",".join([format(float(v), ".17g") for v in (t, *y)] + [branch]) + "\n"
            for t, y, branch in rows
        )
        path = tmp_path / "sol.csv"
        write_solution_csv(path, sol)
        assert path.read_bytes() == expected.encode()
        assert expected.splitlines()[2:5:2] == [
            "-1,0,-0,interior", "4,-0.33333333333333331,1e+22,right_endpoint_value"
        ]
        t, y, branches = read_solution_csv(path)
        assert branches == [row[2] for row in rows]
        written = np.column_stack([t, y])
        table = np.array([[t, *y] for t, y, _ in rows])
        assert np.array_equal(written.view(np.int64), table.view(np.int64))


class TestSubcommands:
    def test_check_worked_example(self, tmp_path):
        cfg = load_config(bundled_example_path())
        assert run("check", cfg, tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["A1"]["passed"] and payload["A2"]["passed"]
        assert payload["A1"]["det"] == pytest.approx(0.4, abs=1e-12)
        assert payload["A1"]["rcond"] == pytest.approx(1.0, rel=1e-14)  # Q is a scaled rotation
        assert payload["certificate"]["prefactor"] >= 1.0

    def test_check_zero_matrix_fails(self, tmp_path, example_raw):
        example_raw["matrix"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg = parse_config(example_raw)
        assert run("check", cfg, tmp_path) == EXIT_VERIFICATION_FAILED
        payload = json.loads((tmp_path / "check.json").read_text())
        assert not payload["A2"]["passed"]
        assert payload["certificate"] is None

    def test_simulate_and_roundtrip(self, tmp_path, example_raw):
        example_raw["windows"]["t_end"] = 9.0
        example_raw["tolerances"]["rk_step"] = 0.01
        cfg = parse_config(example_raw)
        assert run("simulate", cfg, tmp_path) == EXIT_OK
        t, y, branches = read_solution_csv(tmp_path / "trajectory.csv")
        assert branches.count("right_endpoint_value") == 1  # one jump in [0, 9]
        assert t[0] == 0.0 and t[-1] == 9.0

    def test_simulate_off_scale_exits_usage(self, tmp_path, example_file, example_raw):
        code = main([
            "simulate", "--config", str(example_file), "--out", str(tmp_path),
            "--override", "windows.t0=2.0",
        ])
        assert code == EXIT_USAGE

    def test_returns_json(self, tmp_path):
        cfg = load_config(bundled_example_path())
        assert run("returns", cfg, tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "returns.json").read_text())
        assert payload["window"] == [0, 20]
        assert len(payload["entries"]) == 3
        defects = [e["defect"] for e in payload["entries"]]
        assert defects == sorted(defects, reverse=True)

    def test_returns_window_covers_evaluator_depth(self, tmp_path, example_raw):
        example_raw["windows"].pop("return_window")
        example_raw["windows"]["zeta_max"] = 2000
        cfg = parse_config(example_raw)
        assert run("returns", cfg, tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "returns.json").read_text())
        # the interval indices covering [1, 17], extended below to the
        # deepest term the evaluator reads there
        assert payload["window"] == [-12, 2]
        assert payload["window"][0] == 0 - cfg.evaluator.depth
        assert cfg.evaluator.depth == 12

    def test_verify_samples_the_forcing_once(self, tmp_path, monkeypatch, example_raw):
        # the bound report reads the evaluator's own ceilings
        calls = []
        sup_norm = TrigForcing.sup_norm

        def counting(self, *args):
            calls.append(args)
            return sup_norm(self, *args)

        monkeypatch.setattr(TrigForcing, "sup_norm", counting)
        assert run("verify", parse_config(example_raw), tmp_path) == EXIT_OK
        assert len(calls) == 1

    def test_bounded_and_decompose(self, tmp_path, example_raw):
        example_raw["windows"]["t_end"] = 17.0
        example_raw["tolerances"]["grid_step"] = 0.5
        cfg = parse_config(example_raw)
        assert run("bounded", cfg, tmp_path) == EXIT_OK
        assert run("decompose", cfg, tmp_path) == EXIT_OK
        t_full, y_full, _ = read_solution_csv(tmp_path / "bounded.csv")
        t1, y1, _ = read_solution_csv(tmp_path / "theta1.csv")
        t2, y2, _ = read_solution_csv(tmp_path / "theta2.csv")
        assert np.array_equal(t_full, t1) and np.array_equal(t_full, t2)
        assert np.max(np.linalg.norm(y_full - y1 - y2, axis=1)) < 2e-8

    def test_example_matches_standalone_subcommands(self, tmp_path, example_raw):
        # example shares one certificate, evaluator and return scan between its
        # stages; each subcommand on a fresh config must write the same bytes
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run("example", parse_config(example_raw), dir_a) == EXIT_OK
        for sub in ("check", "bounded", "decompose", "returns", "verify"):
            assert run(sub, parse_config(example_raw), dir_b) == EXIT_OK
        names = sorted(path.name for path in dir_a.iterdir())
        assert names == sorted(path.name for path in dir_b.iterdir())
        assert len(names) == 6
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    @pytest.mark.parametrize("return_window", [[0, 20], None], ids=["window", "null"])
    def test_example_computes_each_stage_once(self, tmp_path, monkeypatch, example_raw,
                                              return_window):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(impulsive, "certify", counting("certify", impulsive.certify))
        monkeypatch.setattr(
            impulsive.matrixkit, "spectral_radius",
            counting("spectral_radius", impulsive.matrixkit.spectral_radius),
        )
        monkeypatch.setattr(
            cli, "find_return_times", counting("find_return_times", cli.find_return_times)
        )
        monkeypatch.setattr(
            BoundedSolutionEvaluator, "__init__",
            counting("evaluator", BoundedSolutionEvaluator.__init__),
        )
        example_raw["windows"]["return_window"] = return_window
        assert run("example", parse_config(example_raw), tmp_path) == EXIT_OK
        assert calls == {
            "certify": 1, "find_return_times": 1, "evaluator": 1, "spectral_radius": 1,
        }
        # returns and verify report the one mined set
        returns = json.loads((tmp_path / "returns.json").read_text())
        verify = json.loads((tmp_path / "verify.json").read_text())
        zetas = [e["zeta"] for e in returns["entries"]]
        assert zetas == verify["poisson"]["parameters"]["zetas"]

    @pytest.mark.parametrize("return_window", [[0, 20], None], ids=["window", "null"])
    def test_verify_is_the_library_pipeline(self, tmp_path, example_raw, return_window):
        # the subcommand adds only plumbing: its verify.json holds the reports
        # of one verify_all call on the config's values
        example_raw["windows"]["return_window"] = return_window
        assert run("verify", parse_config(example_raw), tmp_path) == EXIT_OK
        cfg = parse_config(example_raw)
        tolerances, windows = cfg.tolerances, cfg.windows
        rng = np.random.default_rng(windows["stability_seed"])
        y0a, y0b = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
        reports = verify_all(
            cfg.evaluator, cfg.returns, windows["compact_lo"], windows["compact_hi"],
            tolerances["grid_step"], tolerances["period_tol"], tolerances["poisson_eps"],
            y0a - y0b, windows["stability_periods"], tolerances["rk_step"],
        )
        expected = json.loads(json.dumps({name: r.to_dict() for name, r in reports.items()}))
        assert json.loads((tmp_path / "verify.json").read_text()) == expected

    @pytest.mark.parametrize("max_returns", [3, 5])
    def test_verify_makes_one_evaluator_batch(self, tmp_path, monkeypatch, example_raw,
                                              max_returns):
        # the compact grid stacked with all its shifted copies: the bound
        # report lifts row 0, and the periodicity and recurrence reports read
        # the parts of every row
        batches = []
        parts = BoundedSolutionEvaluator.parts

        def counting(self, s):
            batches.append(np.size(s))
            return parts(self, s)

        monkeypatch.setattr(BoundedSolutionEvaluator, "parts", counting)
        example_raw["windows"]["max_returns"] = max_returns
        run("verify", parse_config(example_raw), tmp_path)
        verify = json.loads((tmp_path / "verify.json").read_text())
        assert len(verify["poisson"]["parameters"]["zetas"]) == max_returns
        points = verify["poisson"]["parameters"]["grid_points"]
        assert batches == [(2 + max_returns) * points]

    def test_periodicity_pairs_every_grid_point(self, tmp_path, example_raw):
        # with delta = 2.7 the interval length 5.3 is no whole number of grid
        # steps, so a grid built over the window one period on rounds its node
        # counts differently from the compact grid's
        example_raw["timescale"]["delta"] = 2.7
        cfg = parse_config(example_raw)
        run("verify", cfg, tmp_path)
        verify = json.loads((tmp_path / "verify.json").read_text())
        grid = compact_grid(cfg.ts, 1.0, 17.0, cfg.tolerances["grid_step"])
        assert len(grid) == 216
        assert verify["periodicity"]["metrics"]["pairs"] == len(grid)
        assert verify["periodicity"]["passed"]

    def test_default_return_window_covers_evaluator_depth(self, tmp_path, monkeypatch,
                                                          example_raw):
        windows = []
        scan = cli.find_return_times

        def recording(seq, window, *args, **kwargs):
            windows.append(window)
            return scan(seq, window, *args, **kwargs)

        monkeypatch.setattr(cli, "find_return_times", recording)
        example_raw["windows"]["return_window"] = None
        cfg = parse_config(example_raw)
        assert run("verify", cfg, tmp_path) == EXIT_OK
        # the sequence indices the evaluator reads over the compact grid: at
        # psi(t) = t - k*gap, which at a left endpoint is the impulse before it
        ts = cfg.ts
        grid = compact_grid(ts, 1.0, 17.0, cfg.tolerances["grid_step"])
        s = grid - ts.gap * ts.locate(grid)[0]
        deepest = int(ts.impulse_index_below(s - cfg.evaluator.horizon).min()) + 1
        highest = int(ts.impulse_index_below(s).max()) + 1
        assert (deepest, highest) == (-10, 2)
        (lo, hi), = windows
        assert lo <= deepest and hi == highest

    @pytest.mark.parametrize("sequence", ["logistic", "table"])
    def test_recurrence_reports_match_per_shift_reference(self, tmp_path, example_raw,
                                                          sequence):
        if sequence == "table":
            rng = np.random.default_rng(5)
            terms = rng.uniform(-1.0, 1.0, size=(400, 2))
            example_raw["gamma"] = {
                "kind": "table", "values": {str(k - 300): v.tolist() for k, v in enumerate(terms)},
            }
            example_raw["windows"]["zeta_max"] = 60
        cfg = parse_config(example_raw)
        run("verify", cfg, tmp_path)
        verify = json.loads((tmp_path / "verify.json").read_text())
        # the reference evaluates the compact grid and each shifted copy on its own
        ts, windows = cfg.ts, cfg.windows
        grid = compact_grid(
            ts, windows["compact_lo"], windows["compact_hi"], cfg.tolerances["grid_step"]
        )
        parts = as_timescale_function(cfg.evaluator)
        base = parts(grid)
        zetas = verify["poisson"]["parameters"]["zetas"]
        for name, pick in (("poisson", lambda v: v[:, 1]),
                           ("poisson_full_solution", lambda v: v.sum(axis=1))):
            reference = [
                float(np.max(np.linalg.norm(pick(parts(grid + ts.period * z)) - pick(base),
                                            axis=1)))
                for z in zetas
            ]
            assert [verify[name]["metrics"][f"D_{i}"] for i in range(len(zetas))] == reference

    def test_config_is_read_only(self):
        cfg = load_config(bundled_example_path())
        with pytest.raises(TypeError):
            cfg.tolerances["eval_tol"] = 1e-3
        with pytest.raises(TypeError):
            cfg.windows["zeta_max"] = 10

    def test_unknown_subcommand(self, tmp_path):
        cfg = load_config(bundled_example_path())
        with pytest.raises(ConfigError):
            run("frobnicate", cfg, tmp_path)


class TestMain:
    def test_usage_error_for_missing_config(self, tmp_path):
        assert main(["check", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_error_record_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["check", "--config", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda cls: cls.__name__)
    def test_library_error_exits_usage(self, tmp_path, capsys, monkeypatch, example_file, error):
        def failing(cfg):
            raise error("injected failure")

        monkeypatch.setitem(cli._SUBCOMMANDS, "check", failing)
        code = main(["check", "--config", str(example_file), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == error.__name__

    @pytest.mark.parametrize(
        "override, error",
        [("gamma.k_min=-3", "HorizonError"), ("matrix=[[0.0, 0.0], [0.0, 0.0]]", "AssumptionError"),
         # both assumptions hold, but exp(||A|| h) over one grid step overflows
         ("matrix=[[-0.5, 100000.0], [0.0, -0.5]]", "ConvergenceError")],
    )
    def test_bounded_library_errors(self, tmp_path, capsys, example_file, override, error):
        code = main([
            "bounded", "--config", str(example_file), "--out", str(tmp_path),
            "--override", override,
        ])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == error

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_unexpected_error_exits_usage(self, tmp_path, capsys, example_file):
        # the forcing's derivative bound overflows a float; exit 1 stays
        # reserved for a failed check
        code = main([
            "bounded", "--config", str(example_file), "--out", str(tmp_path),
            "--override", 'forcing=[{"harmonics":[{"n":1e300,"cos":1.0}]},{}]',
        ])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "OverflowError"

    def test_return_window_below_first_index(self, tmp_path, capsys, example_file):
        # the evaluator reads down to index -10, but the null window pads one
        # gap deeper than that, below an orbit seeded at -11
        code = main([
            "example", "--config", str(example_file), "--out", str(tmp_path),
            "--override", "gamma.k_min=-11",
            "--override", "windows.return_window=null",
        ])
        assert code == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "HorizonError"
        assert "[-12, 2]" in record["message"] and "-11" in record["message"]

    @pytest.mark.parametrize(
        "override, error",
        [("gamma.k_min=-5", "HorizonError"), ("windows.stability_periods=1", "ValueError"),
         ("windows.return_window=[5,2]", "ValueError"),
         # grids too large to index: counted before any point, the record names the step
         ("tolerances.grid_step=1e-300", "ValueError"), ("windows.t_end=1e300", "ValueError"),
         ("tolerances.grid_step=1e-17", "ValueError"),  # indexable, but not its bytes
         # a grid that can be indexed but not held (2.5e10 points): its allocation fails
         ("tolerances.grid_step=1e-9", "ValueError")],
    )
    def test_failed_example_leaves_no_output(self, tmp_path, capsys, example_file, override,
                                             error):
        # each fails in a late stage of example, after the check passed; a run
        # computes every output before it writes any
        out = tmp_path / "out"
        argv = ["example", "--config", str(example_file), "--out", str(out),
                "--override", override]
        if override == "tolerances.grid_step=1e-9":
            code, err = _capped_main(argv)
        else:
            code, err = main(argv), capsys.readouterr().err
        assert code == EXIT_USAGE
        record = json.loads(err.strip())
        assert record["error"] == error
        if override.startswith(("tolerances.grid_step", "windows.t_end")):
            assert "grid_step" in record["message"] and "[0.0, " in record["message"]
        assert not out.exists()

    def test_null_return_window_too_wide_fails_at_once(self, tmp_path, capsys, example_file):
        # the compact window spans about 1.25e299 intervals, more than the
        # scan's orbit array can index; the record names the setting
        out = tmp_path / "out"
        code = main(["example", "--config", str(example_file), "--out", str(out),
                     "--override", "windows.compact_hi=1e300",
                     "--override", "windows.return_window=null"])
        assert code == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "windows.compact_hi=1e+300" in record["message"]
        assert not out.exists()

    def test_null_return_window_too_wide_to_hold_fails(self, tmp_path, example_file):
        # 1.25e11 intervals can be indexed but not held: the scan's window
        # fails to allocate, and the record names the compact window
        out = tmp_path / "out"
        code, err = _capped_main(["example", "--config", str(example_file), "--out", str(out),
                                  "--override", "windows.compact_hi=1e12",
                                  "--override", "windows.return_window=null"])
        assert code == EXIT_USAGE
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "windows.compact_hi=1000000000000.0" in record["message"]
        assert "too many to hold" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("hi, limit", [(10 ** 12, "hold"), (10 ** 19, "index")])
    def test_explicit_return_window_too_wide_fails(self, tmp_path, example_file, hi, limit):
        # 10^12 indices can be indexed but not held: the scan's window fails
        # to allocate under the cap; 10^19 are counted too many to index
        # before any allocation; either record names the setting
        out = tmp_path / "out"
        code, err = _capped_main(["returns", "--config", str(example_file), "--out", str(out),
                                  "--override", f"windows.return_window=[0, {hi}]"])
        assert code == EXIT_USAGE
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert f"windows.return_window=[0, {hi}]" in record["message"]
        assert f"too many to {limit}" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("return_window", [[0, 20], None], ids=["window", "null"])
    def test_sequence_too_short_for_the_scan_fails(self, tmp_path, capsys, example_raw,
                                                    return_window):
        # the table ends at 399, short of the last term the scan reads; the
        # record names the two settings that reach past it
        example_raw["gamma"] = {"kind": "table",
                                "values": {str(k): [0.01 * k, 1.0] for k in range(-40, 400)}}
        example_raw["windows"]["return_window"] = return_window
        path, out = tmp_path / "table.json", tmp_path / "out"
        path.write_text(json.dumps(example_raw))
        assert main(["returns", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        shown = "null" if return_window is None else "[0, 20]"
        assert f"windows.return_window={shown} and windows.zeta_max=100000" in record["message"]
        assert "no entry at index 400" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("override", ["windows.zeta_max=0", "windows.max_returns=0"])
    def test_mining_setting_below_one_fails_when_read(self, tmp_path, capsys, monkeypatch,
                                                      example_file, example_raw, override):
        # rejected with the config, before any stage runs
        field_name = override.split("=")[0].split(".")[1]
        example_raw["windows"][field_name] = 0
        with pytest.raises(ConfigError, match=f"windows.{field_name} must be an integer >= 1"):
            parse_config(example_raw)
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("a stage ran"))
        out = tmp_path / "out"
        code = main(["example", "--config", str(example_file), "--out", str(out),
                     "--override", override])
        assert code == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and f"windows.{field_name}" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, name, keys",
        [("example", "check.json", {"A1", "A2", "certificate"}),
         ("verify", "verify.json", {"assumptions"})],
    )
    def test_failed_check_writes_its_report(self, tmp_path, example_file, subcommand, name,
                                            keys):
        # a non-contractive matrix fails A2: the run exits 1 and writes the
        # report of the failed check alone
        out = tmp_path / "out"
        code = main([subcommand, "--config", str(example_file), "--out", str(out),
                     "--override", "matrix=[[0.4, 0.0], [0.0, 0.4]]"])
        assert code == EXIT_VERIFICATION_FAILED
        assert [path.name for path in out.iterdir()] == [name]
        payload = json.loads((out / name).read_text())
        assert set(payload) == keys
        assert payload.get("certificate") is None  # check.json names no certificate

    def test_default_return_window_needs_certificate(self, tmp_path, capsys, example_file):
        # a null window reaches as deep as the evaluator reads, so mining it
        # needs the certificate, which a non-contractive matrix refuses
        code = main([
            "returns", "--config", str(example_file), "--out", str(tmp_path),
            "--override", "windows.return_window=null",
            "--override", "matrix=[[0.4, 0.0], [0.0, 0.4]]",
        ])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "AssumptionError"

    @pytest.mark.parametrize("override", ["x=1", "a.b=1"])
    def test_override_on_non_object_config(self, tmp_path, capsys, override):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code = main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--override", override])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"

    @pytest.mark.parametrize("subcommand", sorted(cli._SUBCOMMANDS))
    @pytest.mark.parametrize(
        "override",
        ['tolerances.grid_step="abc"', "windows.zeta_max=null", "windows.max_returns=[1]",
         "windows.stability_periods=null", "gamma.k_min=-2000.7", "gamma.r=true",
         'gamma.z0="0.4"', "timescale.theta=true", 'matrix=[["-0.4", 0.2], [-0.2, true]]',
         'gamma={"kind": "table", "values": {"0": [true, "0.5"]}}'],
    )
    def test_mistyped_value_exits_usage(self, tmp_path, capsys, example_file, override,
                                        subcommand):
        # each value is converted once, when the config is read, so a
        # mistyped one fails every subcommand alike and names its field
        code = main([
            subcommand, "--config", str(example_file), "--out", str(tmp_path),
            "--override", override,
        ])
        assert code == EXIT_USAGE
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert override.split("=")[0] in record["message"]

    def test_config_values_are_converted_once(self, example_raw):
        example_raw["windows"].update(zeta_max=1e5, return_window=[0.0, 20], stability_periods=10)
        example_raw["tolerances"]["grid_step"] = 1
        cfg = parse_config(example_raw)
        assert cfg.windows["zeta_max"] == 100_000 and type(cfg.windows["zeta_max"]) is int
        assert cfg.windows["return_window"] == (0, 20)
        assert type(cfg.windows["stability_periods"]) is float
        assert type(cfg.tolerances["grid_step"]) is float
        assert cfg.windows["initial"] == (0.0, 0.0)
        example_raw["windows"]["zeta_max"] = 2.5
        example_raw["tolerances"]["rk_step"] = True
        with pytest.raises(ConfigError) as err:
            parse_config(example_raw)
        assert len(err.value.issues) == 2

    def test_required_windows_stay_lazy(self, tmp_path, example_raw):
        del example_raw["windows"]["t0"]
        cfg = parse_config(example_raw)
        assert run("check", cfg, tmp_path) == EXIT_OK
        with pytest.raises(ConfigError, match="t0"):
            run("simulate", cfg, tmp_path)

    def test_deterministic_outputs(self, tmp_path, example_raw):
        example_raw["windows"]["t_end"] = 9.0
        example_raw["tolerances"]["grid_step"] = 0.5
        cfg = parse_config(example_raw)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("bounded", cfg, out_a)
        run("bounded", cfg, out_b)
        assert (out_a / "bounded.csv").read_bytes() == (out_b / "bounded.csv").read_bytes()
