import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from remest import analytics, simulator
from remest.analytics import cost_closed_form, numeric_argmin, optimal_threshold
from remest.cli import (
    _CHECK_COLUMNS,
    _COMMANDS,
    CONFIG_FIELDS,
    REQUIRED,
    ConfigError,
    load_config,
    main,
)
from remest.strategies import SystemParams

REF_PARAMS = {"lambda": 1.0, "k": 2.0, "p_t": 1.0, "c": 1.0}
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def reject_constant(token):
    raise AssertionError(f"report is not strict JSON: {token}")


def write_config(path, **fields):
    cfg = {"schema_version": 1, **REF_PARAMS, **fields}
    path.write_text(json.dumps(cfg))
    return path


def bench_workloads():
    """``bench/workloads.py``, loaded from its file as ``test_bench_gate.py`` loads it."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    if spec.name not in sys.modules:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[spec.name]


class TestSimulate:
    def test_optimal_strategy_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", strategy="optimal",
                           horizon=2_000, episodes=25, seed=7,
                           out=str(tmp_path / "report.json"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["command"] == "simulate"
        metrics = {row["metric"] for row in report["checks"]}
        assert metrics == {
            "per_stage_cost", "mse_tx", "mse_tx_pos", "mse_tx_neg",
            "power", "tx_frequency", "bias_tx",
        }
        derived = report["derived"]
        assert derived["theta"] == 1.0
        assert derived["gamma"] == 0.5
        assert derived["m"] == pytest.approx(2.0 / 3.0)
        assert derived["beta_star"] == pytest.approx(math.sqrt(5.0 / 3.0))
        assert "PASS" in capsys.readouterr().out

    def test_never_strategy_cost_target(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", strategy="never",
                           horizon=2_000, episodes=25, seed=7,
                           out=str(tmp_path / "report.json"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = {r["metric"]: r for r in report["checks"]}
        assert set(rows) == {"per_stage_cost"}
        assert rows["per_stage_cost"]["target"] == 2.0
        assert rows["per_stage_cost"]["passed"] is True

    def test_noise_blind_grades_every_row_against_its_own_law(self, tmp_path):
        # the blind decoder errs by s·G, G ~ Gamma(k, 1/lambda): k(k+1)/lambda² = 6
        cfg = write_config(tmp_path / "cfg.json", strategy="noise_blind",
                           horizon=2_000, episodes=10, seed=7,
                           out=str(tmp_path / "report.json"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        rows = {r["metric"]: r for r in report["checks"]}
        assert len(rows) == 7
        assert all(row["passed"] is True for row in rows.values()), rows
        for key in ("mse_tx", "mse_tx_pos", "mse_tx_neg"):
            assert rows[key]["target"] == 6.0
        law = cost_closed_form(SystemParams(1.0, 2.0, 1.0, 1.0), report["derived"]["beta"],
                               matched=False)
        assert rows["per_stage_cost"]["target"] == law.total
        assert (rows["power"]["target"], rows["bias_tx"]["target"]) == (1.0, 0.0)

    @pytest.mark.parametrize("strategy, beta", [("optimal", None), ("threshold", 1.0),
                                                ("always", None), ("noise_blind", None),
                                                ("never", None)])
    def test_checks_are_in_the_order_the_benchmark_gate_reads(self, tmp_path, strategy, beta):
        # the golden digests pin this order only on their own numpy and CPU key
        cfg = write_config(tmp_path / "cfg.json", strategy=strategy, beta=beta,
                           horizon=2_000, episodes=10, seed=7,
                           out=str(tmp_path / "report.json"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        metrics = tuple(row["metric"] for row in report["checks"])
        want = bench_workloads().SIMULATE_CHECKS if strategy != "never" else ("per_stage_cost",)
        assert metrics == want

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path / "cfg.json", strategy="optimal",
                           horizon=1_000, episodes=10, seed=3,
                           out=str(out), **{"format": "csv"})
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == list(_CHECK_COLUMNS)
        assert len(rows) == 8

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", horizon=500, episodes=5, seed=1)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "remest_simulate.json").exists()


class TestValidation:
    def test_negative_lambda_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "lambda": -1.0,
                                   "k": 2.0, "p_t": 1.0, "c": 1.0}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(REF_PARAMS))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", theta=3.0)  # theta is derived, never input
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_threshold_requires_beta(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", strategy="threshold")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_bad_strategy_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", strategy="psychic")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "strategy" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
        assert "config" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_jobs_is_unknown(self, tmp_path, capsys, command):
        # simulation blocks run serially; there is no worker count to set
        cfg = write_config(tmp_path / "cfg.json", jobs=1, horizon=100, episodes=5,
                           out=str(tmp_path / "r.json"))
        assert main([command, "--config", str(cfg)]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "lambda", 1e-200),  # lambda**2 rounds to 0
        ("optimize", "lambda", 1e-200),
        ("sweep", "lambda_grid", [1e-200]),
        ("optimize", "lambda", 1e200),  # lambda**2 beyond the float range
        ("verify-matching", "lambda", 1e200),
        ("verify-matching", "lambda", 1e-160),  # m and beta* infinite
    ])
    def test_extreme_model_is_config_error(self, tmp_path, capsys, command, key, value):
        sizes = {"horizon": 100, "episodes": 5} if command in ("simulate", "optimize") else {}
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out), **sizes, **{key: value})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "must be positive and finite" in err, err
        assert not out.exists()

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        # a valid config whose conditional statistics cannot be estimated
        cfg = write_config(tmp_path / "cfg.json", strategy="threshold", beta=12,
                           horizon=100, episodes=10, out=str(tmp_path / "r.json"))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "transmissions" in capsys.readouterr().err
        # the report is still written: the cost check stands, and each
        # statistic that could not be estimated is a failed row with nulls
        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject_constant)
        assert report["passed"] is False
        rows = {r["metric"]: r for r in report["checks"]}
        assert list(rows) == ["per_stage_cost", "mse_tx", "mse_tx_pos", "mse_tx_neg",
                              "power", "tx_frequency", "bias_tx"]
        assert rows["per_stage_cost"]["n"] == 10
        assert rows["per_stage_cost"]["passed"] is True
        assert rows["tx_frequency"]["n"] == 1_000
        # 0 transmissions: standard error 0, an infinite z written as null
        assert rows["tx_frequency"]["z"] is None
        assert rows["tx_frequency"]["passed"] is False
        for name in ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "bias_tx"):
            row = rows[name]
            assert row["estimate"] is None and row["std_error"] is None, name
            assert row["z"] is None and row["passed"] is False, name
            assert row["target"] is not None, name

    def test_threshold_beyond_the_squared_float_range_exits_1(self, tmp_path, capsys):
        # beta**2 overflows in the closed-form cost; J is its limit 2/lam²
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", strategy="threshold", beta=1e308,
                           horizon=100, episodes=10, out=str(out))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "transmissions" in capsys.readouterr().err
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        rows = {r["metric"]: r for r in report["checks"]}
        assert rows["per_stage_cost"]["target"] == 2.0
        assert rows["tx_frequency"]["target"] == 0.0
        assert report["passed"] is False

    @pytest.mark.parametrize("omega_min, omega_max", [
        (1.0, 1.0),
        (5.0, -5.0),
        (-1e308, 1e308),  # the span is beyond the float range
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_omega_range_is_config_error(self, tmp_path, capsys, omega_min, omega_max):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", omega_min=omega_min, omega_max=omega_max,
                           samples=10_000, out=str(out))
        assert main(["verify-matching", "--config", str(cfg)]) == 2
        assert "'omega_min'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields, key", [
        ({"lambda": 4.0, "omega_min": 0.0, "omega_max": 1e308}, "omega_max"),  # alpha*omega
        ({"lambda": 0.1, "p_t": 16.0, "omega_min": 0.0, "omega_max": 1e308},  # theta*omega
         "omega_max"),
        ({"pair": "unmatched", "omega_max": 1e200}, "omega_max"),  # (omega/lambda)^2
        ({"pair": "unmatched", "omega_min": -1e200, "omega_max": 0.0}, "omega_min"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_that_overflows_a_cf_argument_is_config_error(self, tmp_path, capsys, fields,
                                                              key):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", samples=10_000, out=str(out), **fields)
        assert main(["verify-matching", "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"omega_min": 0.0, "omega_points": 10_000},
        {"lambda": 1.7, "omega_min": -1e-3, "omega_points": 5_000},  # alpha*omega is not
    ])
    def test_linspace_grids_with_uneven_rounded_steps_run(self, tmp_path, fields):
        # steps of these linspace grids differ by more than 1e-12 of a step
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", samples=10_000, out=str(out), **fields)
        assert main(["verify-matching", "--config", str(cfg)]) in (0, 1)
        report = json.loads(out.read_text())
        assert report["analytic"]["n_points"] == fields["omega_points"]
        assert report["analytic"]["max_residual"] < 1e-12

    # the analytic residuals these grids give without the guard: 0.632, 0.199,
    # 0.632 and 0.392 (k*theta = 2)
    @pytest.mark.parametrize("fields, key", [
        ({"omega_min": 3.0, "omega_points": 5}, "omega_min"),
        ({"omega_min": 10.0, "omega_max": 12.0, "omega_points": 5}, "omega_min"),
        ({"omega_min": -5.0, "omega_max": -3.0, "omega_points": 5}, "omega_max"),
        ({"omega_points": 3}, "omega_points"),
        ({"omega_points": 5}, "omega_points"),
        ({"omega_points": 7}, "omega_points"),
        ({"omega_min": 100.0, "omega_max": 101.0}, "omega_min"),
    ])
    def test_grid_off_the_matched_pairs_branch_is_config_error(self, tmp_path, capsys,
                                                               fields, key):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", samples=10_000, out=str(out), **fields)
        assert main(["verify-matching", "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"omega_points": 8},  # k*theta*step = 2.86 < pi
        {"omega_points": 101},  # the default grid
        {"omega_min": 0.0},  # 0 at the grid's end
        {"pair": "unmatched", "omega_points": 3},  # gamma = 1: no branch to follow
        {"pair": "unmatched", "omega_min": 3.0, "omega_points": 5},
    ])
    def test_grid_on_the_matched_pairs_branch_runs(self, tmp_path, fields):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", samples=10_000, out=str(out), **fields)
        assert main(["verify-matching", "--config", str(cfg)]) in (0, 1)
        analytic = json.loads(out.read_text())["analytic"]
        assert analytic["n_points"] == fields.get("omega_points", 101)
        if "pair" not in fields:
            assert analytic["max_residual"] < 1e-12

    @pytest.mark.parametrize("fields", [
        {},
        {"pair": "unmatched"},
        # the reach uses the model's alpha whatever the pair; the matched pair
        # would need a finer grid than these (see the branch guard above)
        {"pair": "unmatched", "lambda": 4.0, "omega_min": 0.0, "omega_max": 3e153},
        {"pair": "unmatched", "omega_min": -5e153, "omega_max": 0.0},
        {"pair": "unmatched", "omega_points": 2},
        {"pair": "unmatched", "omega_min": 100.0, "omega_max": 101.0, "omega_points": 11},
        {"pair": "unmatched", "lambda": 1.7, "omega_min": -1e-3, "omega_points": 5_000},
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_whose_cf_arguments_square_finitely_is_accepted(self, tmp_path, fields):
        cfg = write_config(tmp_path / "cfg.json", **fields)
        assert load_config(str(cfg), "verify-matching", {})["omega_max"] == fields.get(
            "omega_max", 5.0)

    @pytest.mark.parametrize("key", ["seed", "stream"])
    def test_random_key_below_2_32(self, tmp_path, key):
        # larger keys would alias smaller ones in the random streams
        cfg = write_config(tmp_path / "cfg.json", **{key: 2**32})
        with pytest.raises(ConfigError, match=key):
            load_config(str(cfg), "simulate", {})
        write_config(cfg, **{key: 2**32 - 1})
        assert load_config(str(cfg), "simulate", {})[key] == 2**32 - 1

    def test_seed_flag_below_2_32(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", horizon=100, episodes=5)
        assert main(["simulate", "--config", str(cfg), "--seed", str(2**32)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_module_entry_point_exits_2_on_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(REF_PARAMS))  # no schema_version
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "remest", "simulate", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert done.returncode == 2, done.stderr
        assert "schema_version" in done.stderr

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in ("optimize", "sweep")
        for key in ("argmin_lo", "argmin_hi", "argmin_tol")
    ])
    def test_argmin_keys_are_unknown(self, tmp_path, capsys, command, key):
        # the golden-section search finds its own bracket, to a fixed tolerance
        old_default = {"argmin_lo": 0.0, "argmin_hi": 10.0, "argmin_tol": 1e-8}[key]
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out), **{key: old_default})
        assert main([command, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("optimize", "argmin_hi", math.inf),
        ("optimize", "argmin_tol", math.nan),
        ("sweep", "argmin_tol", math.nan),
        ("sweep", "argmin_tol", math.inf),
    ])
    def test_non_finite_argmin_is_config_error(self, tmp_path, capsys, command, key, value):
        # json reads Infinity and NaN; neither may reach the golden-section search
        sizes = {"horizon": 100, "episodes": 5} if command == "optimize" else {}
        cfg = write_config(tmp_path / "cfg.json", out=str(tmp_path / "r.json"),
                           **sizes, **{key: value})
        assert main([command, "--config", str(cfg)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_integer_beyond_float_range_names_field(self, tmp_path, capsys):
        # json reads 1 followed by 400 zeros as an int that no float holds
        cfg = write_config(tmp_path / "cfg.json", **{"lambda": 10**400})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "'lambda'" in capsys.readouterr().err

    def test_integer_beyond_digit_limit_is_config_error(self, tmp_path, capsys):
        # beyond Python's 4300-digit limit json.load raises a plain ValueError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, **REF_PARAMS})[:-1]
                       + ', "horizon": 1' + "0" * 5_000 + "}")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [True, 2, 1.5, "1"])
    def test_schema_version_must_be_the_number_1(self, tmp_path, capsys, version):
        # true == 1 in Python, yet it is not the schema version
        cfg = write_config(tmp_path / "cfg.json", schema_version=version, horizon=100,
                           episodes=5, out=str(tmp_path / "r.json"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "schema_version" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("version", [1, 1.0])
    def test_schema_version_echoed_as_given(self, tmp_path, version):
        cfg = write_config(tmp_path / "cfg.json", schema_version=version)
        echoed = load_config(str(cfg), "simulate", {})["schema_version"]
        assert echoed == 1 and type(echoed) is type(version)

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", horizon=100, episodes=5,
                           out=str(tmp_path / "no_such_dir" / "report.json"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "report" in capsys.readouterr().err


class TestCheckRecord:
    """Every command writes its checks in one shape, each graded, and its
    verdict is their conjunction."""

    SMALL = {
        "simulate": {"strategy": "noise_blind", "horizon": 200, "episodes": 5},
        "optimize": {"horizon": 200, "episodes": 5},
        "verify-matching": {"samples": 10_000, "omega_points": 11},
        "sweep": {"lambda_grid": [1.0], "k_grid": [2.0], "p_t_grid": [1.0, 4.0],
                  "c_grid": [1.0], "spot_check": True, "spot_horizon": 50, "spot_episodes": 5},
    }

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_one_shape_and_verdict(self, tmp_path, command):
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out), **self.SMALL[command])
        code = main([command, "--config", str(cfg)])
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        assert code == (0 if report["passed"] else 1)
        assert report["checks"]
        for check in report["checks"]:
            assert check.keys() == set(_CHECK_COLUMNS), check
            assert isinstance(check["basis"], str) and check["basis"], check
        verdicts = [c["passed"] for c in report["checks"]]
        assert all(isinstance(verdict, bool) for verdict in verdicts), verdicts
        assert report["passed"] is all(verdicts)


class TestNonFiniteValues:
    """Squares of draws overflow at the edge of the float range, even where
    the model's closed forms are finite. A non-finite value is written as
    null in JSON and as an empty cell in CSV, and its check fails."""

    @pytest.mark.parametrize("command, fields, failed", [
        ("simulate", {"lambda": 1.1e-154, "k": 1},
         {"per_stage_cost", "mse_tx", "mse_tx_pos", "mse_tx_neg", "bias_tx"}),
        ("simulate", {"lambda": 8e-155, "k": 1e20, "strategy": "never"}, {"per_stage_cost"}),
        # z* = lambda*beta* = 1, and the argmin places it to 4e-10
        ("optimize", {"lambda": 8e-155, "k": 1e20}, {"mc_cost_covers_closed_form"}),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_written_as_null(self, tmp_path, command, fields, failed):
        out, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        cfg = write_config(tmp_path / "cfg.json", horizon=100, episodes=10, out=str(out),
                           **fields)
        assert main([command, "--config", str(cfg)]) == 1
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        assert report["passed"] is False
        assert {c["metric"] for c in report["checks"] if c["passed"] is False} == failed
        assert main([command, "--config", str(cfg), "--format", "csv",
                     "--out", str(out_csv)]) == 1
        cells = [cell.lower() for row in csv.reader(out_csv.open()) for cell in row]
        assert not {"nan", "inf", "-inf"} & set(cells), cells

    def test_infinite_std_error_fails_its_check(self, tmp_path):
        # the M2 of the episode costs overflows and their mean does not; an
        # infinite SE once covered every target
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", strategy="never", horizon=200, episodes=50,
                           seed=3, out=str(out), **{"lambda": 1e-100})
        with np.errstate(over="ignore"):  # the overflow under test
            assert main(["simulate", "--config", str(cfg)]) == 1
        (row,) = json.loads(out.read_text(), parse_constant=reject_constant)["checks"]
        assert row["estimate"] == pytest.approx(2e200, rel=0.5)
        assert (row["std_error"], row["z"], row["passed"]) == (None, None, False)


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=1_000, episodes=10, seed=11)
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=500, episodes=5, seed=11)
        assert main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["config"]["seed"] == 99
        assert r2["config"]["seed"] == 11
        assert r1["checks"] != r2["checks"]

    def test_verify_matching_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the empirical CF sums each block with a complex matrix product
        cfg = write_config(tmp_path / "cfg.json", samples=50_000, seed=7)
        reports = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = str(SRC)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}.json"
            done = subprocess.run(
                [sys.executable, "-m", "remest", "verify-matching", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert done.returncode in (0, 1), done.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_config_roundtrip_reproduces_report(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=500, episodes=8,
                           seed=5, out=str(out))
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = out.read_bytes()
        echoed = json.loads(first)["config"]
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(echoed))
        out2 = tmp_path / "report2.json"
        assert main(["simulate", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert out2.read_bytes() == first


class TestOptimize:
    def test_report_schema_and_agreement(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=2_000, episodes=20,
                           seed=13, out=str(out))
        assert main(["optimize", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        for field in ("beta_star_formula", "beta_star_numeric",
                      "j_at_beta_star_formula", "j_at_beta_star_numeric",
                      "mc_cost_mean", "mc_cost_std_error", "mc_cost_n"):
            assert field in report, field
        assert report["beta_star_formula"] == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
        assert abs(report["beta_star_numeric"] - report["beta_star_formula"]) < 1e-6

    def test_small_cost_formula(self, tmp_path):
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=1_000, episodes=10,
                           seed=13, out=str(out))
        cfg_data = json.loads(cfg.read_text())
        cfg_data["c"] = 0.01
        cfg.write_text(json.dumps(cfg_data))
        assert main(["optimize", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["beta_star_formula"] == pytest.approx(
            math.sqrt(0.01 + 2.0 / 3.0), abs=1e-12
        )

    def test_minimizer_beyond_the_first_bracket(self, tmp_path):
        # z* = lam·beta* = 14.17, outside [0, 10], where the search in z starts
        cfg = write_config(tmp_path / "cfg.json", horizon=2_000, episodes=20,
                           out=str(tmp_path / "opt.json"), c=200.0)
        assert main(["optimize", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("lam, c", [(16.0, 2.0**-8), (12.0, 1.0), (10.0, 10.0),
                                        (1.0, 1000.0)])
    def test_argmin_agrees_where_the_cost_dips_little_below_its_plateau(self, tmp_path, lam, c):
        # J = 2/lam² less a dip of order e^(-lam·beta*), which rounding lost
        # when the search read J itself
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=2_000, episodes=20, out=str(out),
                           **{"lambda": lam, "c": c})
        assert main(["optimize", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["beta_star_numeric"] - report["beta_star_formula"]) < 1e-6

    @pytest.mark.parametrize("model", [(1e-3, 0.5, 1.0, 1.0), (0.01, 2.0, 1.0, 1.0),
                                       (16.0, 2.0, 1.0, 1000.0)])
    def test_argmin_is_graded_in_z(self, tmp_path, model):
        # at lambda = 1e-3 and 0.01 a gap of 1e-8 in z is 1e-5 and 1e-6 in
        # beta; at the third, z* = 506 and e^(-z) underflows to 0 inside the
        # search's bracket [0, 1024]
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=200, episodes=10, out=str(out),
                           **dict(zip(("lambda", "k", "p_t", "c"), model)))
        assert main(["optimize", "--config", str(cfg)]) == 0
        check = json.loads(out.read_text())["checks"][0]
        assert check["metric"] == "argmin_agreement"
        assert check["estimate"] < 1e-6

    @pytest.mark.parametrize("lam", [2.0**-20, 1.0, 2.0**20])
    @pytest.mark.parametrize("factor", [0.0, 1.0 + 1e-5])
    def test_a_wrong_argmin_fails(self, tmp_path, monkeypatch, lam, factor):
        monkeypatch.setattr(analytics, "numeric_argmin",
                            lambda p: factor * analytics.optimal_threshold(p))
        out = tmp_path / "opt.json"
        cfg = write_config(tmp_path / "cfg.json", horizon=200, episodes=10, out=str(out),
                           **{"lambda": lam})
        assert main(["optimize", "--config", str(cfg)]) == 1
        assert json.loads(out.read_text())["checks"][0]["passed"] is False

    def test_csv_fields(self, tmp_path):
        out = tmp_path / "opt.csv"
        cfg = write_config(tmp_path / "cfg.json", horizon=1_000, episodes=10,
                           seed=13, out=str(out), **{"format": "csv"})
        assert main(["optimize", "--config", str(cfg)]) == 0
        rows = {r[0]: r[1] for r in csv.reader(out.open()) if r}
        assert "beta_star_formula" in rows
        assert "mc_cost_std_error" in rows


class TestVerifyMatching:
    def test_matched_pair_passes(self, tmp_path):
        out = tmp_path / "match.json"
        cfg = write_config(tmp_path / "cfg.json", samples=100_000, seed=21, out=str(out))
        assert main(["verify-matching", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["analytic"]["max_residual"] < 1e-12
        assert report["empirical"]["max_residual"] < 0.02
        assert report["passed"] is True

    def test_unmatched_pair_detected(self, tmp_path):
        out = tmp_path / "match.json"
        cfg = write_config(tmp_path / "cfg.json", pair="unmatched",
                           samples=100_000, seed=21, out=str(out))
        assert main(["verify-matching", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["analytic"]["max_residual"] > 0.1
        assert report["empirical"]["max_residual"] > 0.05

    def test_csv_has_both_tables(self, tmp_path):
        out = tmp_path / "match.csv"
        cfg = write_config(tmp_path / "cfg.json", samples=100_000, seed=21,
                           omega_points=11, out=str(out), **{"format": "csv"})
        assert main(["verify-matching", "--config", str(cfg)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["check", "omega", "lhs_re", "lhs_im",
                           "rhs_re", "rhs_im", "residual"]
        labels = {r[0] for r in rows[1:]}
        assert labels == {"analytic", "empirical"}
        assert len(rows) == 1 + 2 * 11
        # every residual cell round-trips to the float in the JSON report
        out_json = tmp_path / "match.json"
        assert main(["verify-matching", "--config", str(cfg), "--format", "json",
                     "--out", str(out_json)]) == 0
        report = json.loads(out_json.read_text())
        points = report["analytic"]["points"] + report["empirical"]["points"]
        for row, point in zip(rows[1:], points):
            assert float(row[-1]) == point["residual"]
            assert row[-1] == repr(point["residual"])


    def test_unreliable_points_are_null(self, tmp_path):
        # at |omega| near 50 the noise CF modulus is below the empirical floor
        out, out_csv = tmp_path / "match.json", tmp_path / "match.csv"
        cfg = write_config(tmp_path / "cfg.json", omega_min=-50, omega_max=50,
                           samples=100_000, out=str(out))
        # the verdict is not the subject here: the report must be written either way
        assert main(["verify-matching", "--config", str(cfg)]) in (0, 1)
        report = json.loads(out.read_text(), parse_constant=reject_constant)
        empirical = report["empirical"]
        unreliable = [p for p in empirical["points"] if not p["reliable"]]
        assert len(unreliable) == empirical["n_unreliable"] > 0
        for point in unreliable:
            assert point["residual"] is None and point["rhs_re"] is None, point
            assert point["rhs_im"] is None, point
        assert isinstance(empirical["max_residual"], float)
        assert main(["verify-matching", "--config", str(cfg), "--format", "csv",
                     "--out", str(out_csv)]) in (0, 1)
        rows = [r for r in csv.reader(out_csv.open()) if r[0] == "empirical"]
        assert sum(r[-1] == "" for r in rows) == len(unreliable)


class TestVerifyMatchingBoundedMemory:
    """The traced peak of an in-process verify-matching run does not grow
    with ``samples``: each side is drawn and passed on one chunk at a time.
    Holding both sample arrays, 2^20 samples would add 15 MiB over 2^16."""

    SLACK = 2**18  # bytes: two chunks of 16,384 float64 samples

    @staticmethod
    def _peak(tmp_path, samples: int) -> int:
        cfg = write_config(tmp_path / "cfg.json", samples=samples, out=str(tmp_path / "r.json"))
        tracemalloc.start()
        try:
            assert main(["verify-matching", "--config", str(cfg)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_samples(self, tmp_path):
        self._peak(tmp_path, 2**16)  # warm caches and imports outside the measurement
        small = self._peak(tmp_path, 2**16)
        large = self._peak(tmp_path, 2**20)
        assert large <= small + self.SLACK, (small, large)


class TestSweep:
    def test_grid_cardinality_and_agreement(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path / "cfg.json", out=str(out),
                           lambda_grid=[1.0, 2.0], k_grid=[2.0],
                           p_t_grid=[1.0], c_grid=[0.5, 1.0],
                           **{"format": "csv"})
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["lambda", "k", "P_T", "c",
                           "beta_star_formula", "beta_star_numeric", "J_at_beta_star"]
        assert len(rows) == 1 + 4
        # the nested order lambda > k > P_T > c
        assert [tuple(map(float, row[:4])) for row in rows[1:]] == [
            (1.0, 2.0, 1.0, 0.5), (1.0, 2.0, 1.0, 1.0), (2.0, 2.0, 1.0, 0.5), (2.0, 2.0, 1.0, 1.0)]
        for row in rows[1:]:
            assert abs(float(row[4]) - float(row[5])) < 1e-6

    def test_full_grid_size_and_agreement(self, tmp_path):
        # the default grid; each row holds the analytics functions' values
        out = tmp_path / "sweep.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out))
        assert main(["sweep", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["n_rows"] == len(report["rows"]) == 108
        for row in report["rows"]:
            p = SystemParams(row["lambda"], row["k"], row["P_T"], row["c"])
            formula = optimal_threshold(p)
            assert row["beta_star_formula"] == formula
            assert row["beta_star_numeric"] == numeric_argmin(p)
            assert row["J_at_beta_star"] == cost_closed_form(p, formula).total

    def test_json_report(self, tmp_path):
        out = tmp_path / "sweep.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out),
                           lambda_grid=[1.0], k_grid=[2.0],
                           p_t_grid=[1.0], c_grid=[1.0])
        assert main(["sweep", "--config", str(cfg)]) == 0
        report = json.loads(out.read_text())
        assert report["n_rows"] == 1
        assert report["passed"] is True

    def test_spot_checks_add_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path / "cfg.json", out=str(out),
                           lambda_grid=[1.0], k_grid=[2.0],
                           p_t_grid=[1.0], c_grid=[1.0],
                           spot_check=True, spot_horizon=500, spot_episodes=10,
                           seed=3, **{"format": "csv"})
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][-3:] == ["j_mc_mean", "j_mc_std_error", "j_mc_within_4se"]
        assert rows[1][-1] == "true"

    def test_a_row_6_se_off_fails_the_spot_checks(self, tmp_path, monkeypatch):
        # every row's estimate 3 SE from J_at_beta_star, and the second 6 SE
        gaps = iter([3.0, 6.0, -3.0])

        def estimate_cost(p, strat, horizon, n_episodes, rng):
            se = 0.01
            j = cost_closed_form(p, optimal_threshold(p)).total
            return simulator.MonteCarloEstimate(j + next(gaps) * se, se, n_episodes)

        monkeypatch.setattr(simulator, "estimate_cost", estimate_cost)
        out = tmp_path / "sweep.json"
        cfg = write_config(tmp_path / "cfg.json", out=str(out), lambda_grid=[1.0],
                           k_grid=[2.0], p_t_grid=[1.0], c_grid=[0.5, 1.0, 2.0],
                           spot_check=True)
        assert main(["sweep", "--config", str(cfg)]) == 1
        report = json.loads(out.read_text())
        assert [row["j_mc_within_4se"] for row in report["rows"]] == [True, False, True]
        assert {c["metric"]: c["passed"] for c in report["checks"]} == {
            "argmin_agreement_all_rows": True, "mc_spot_checks": False}

    def test_minimizers_beyond_the_first_bracket(self, tmp_path):
        # the search runs in z = lam·beta from [0, 10]; z* = lam·beta* runs
        # from 12.26 to 40.01 over these grids
        cfg = write_config(tmp_path / "cfg.json", out=str(tmp_path / "sweep.json"),
                           lambda_grid=[1.0, 2.0], c_grid=[150.0, 200.0, 400.0])
        assert main(["sweep", "--config", str(cfg)]) == 0

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", lambda_grid=[])
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "lambda_grid" in capsys.readouterr().err


def test_readme_config_table_matches_fields():
    # each row of the README table: its keys, the commands that take every
    # one of them ("all" or a list) and its default ("required" or a value)
    section = (ROOT / "README.md").read_text().split("### Config schema")[1].split("\n#")[0]
    documented = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        commands = set(_COMMANDS) if cells[1] == "all" else set(cells[1].split(", "))
        for key in cells[0].replace("`", "").split(", "):
            documented[key] = (commands, cells[2].startswith("required"))
    assert documented == {key: (set(f.commands.split()), f.default is REQUIRED)
                          for key, f in CONFIG_FIELDS.items()}
