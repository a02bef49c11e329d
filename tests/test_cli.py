import json
from pathlib import Path

import numpy as np
import pytest

from tsdyn import ConfigError, cli, errors
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

    def test_overrides(self, example_file):
        cfg = load_config(example_file, ["tolerances.rk_step=0.01", "gamma.z0=0.5"])
        assert cfg.tolerances["rk_step"] == 0.01
        assert cfg.model.sequence.z0 == 0.5

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
        sol = lift(model5, BoundedSolutionEvaluator(model5, cert5, 1e-8), grid)
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


class TestSubcommands:
    def test_check_worked_example(self, tmp_path):
        cfg = load_config(bundled_example_path())
        assert run("check", cfg, tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["A1"]["passed"] and payload["A2"]["passed"]
        assert payload["A1"]["det"] == pytest.approx(0.4, abs=1e-12)
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

    def test_returns_window_defaults_to_compact_span(self, tmp_path, example_raw):
        example_raw["windows"].pop("return_window")
        example_raw["windows"]["zeta_max"] = 2000
        cfg = parse_config(example_raw)
        assert run("returns", cfg, tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "returns.json").read_text())
        assert payload["window"] == [0, 2]  # interval indices covering [1, 17]

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
        def failing(cfg, out):
            raise error("injected failure")

        monkeypatch.setitem(cli._SUBCOMMANDS, "check", failing)
        code = main(["check", "--config", str(example_file), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == error.__name__

    @pytest.mark.parametrize(
        "override, error",
        [("gamma.k_min=-3", "HorizonError"), ("matrix=[[0.0, 0.0], [0.0, 0.0]]", "AssumptionError")],
    )
    def test_bounded_library_errors(self, tmp_path, capsys, example_file, override, error):
        code = main([
            "bounded", "--config", str(example_file), "--out", str(tmp_path),
            "--override", override,
        ])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err.strip())["error"] == error

    def test_deterministic_outputs(self, tmp_path, example_raw):
        example_raw["windows"]["t_end"] = 9.0
        example_raw["tolerances"]["grid_step"] = 0.5
        cfg = parse_config(example_raw)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("bounded", cfg, out_a)
        run("bounded", cfg, out_b)
        assert (out_a / "bounded.csv").read_bytes() == (out_b / "bounded.csv").read_bytes()
