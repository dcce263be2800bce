"""Two exact relations between models, checked without a tolerance.

R1: the image of the model (lambda, k, p_t, c) under a power of two s is
(lambda/s, k, p_t, s²·c).  Under the same seed it draws the same uniforms:
the source x and the estimate x_hat scale by s, while the transmit
decisions, the payload y and the noise v stay equal.  Multiplying by a power
of two is exact in binary floating point, so every cost-like statistic, its
standard error and its target scale by s² bit for bit, ``bias_tx`` scales
by s, and ``power``, ``tx_frequency``, every z and every verdict stay equal.

R2: the image of the model under a 4× power budget is (lambda, k, 4·p_t, c).
Under the same seed the payload y and the noise v double, so y² scales by 4
and the estimate x_hat stays equal bit for bit: every row of ``simulate``
but ``power`` is equal, ``power``'s estimate, SE and target are 4×, and
every ``sweep`` column but ``P_T`` is equal.  ``verify-matching`` is left
out: its omega grid does not scale with theta = √p_t (ROADMAP item 12).
"""

import json

import numpy as np
import pytest
from scipy.stats import f_oneway

from remest.analytics import optimal_threshold
from remest.cli import main
from remest.distributions import RngHandle
from remest.strategies import SystemParams, ThresholdAffineStrategy

from nonstationary import stage_costs

MODELS = [(1.0, 2.0, 1.0, 1.0), (0.5, 0.5, 4.0, 10.0), (2.0, 5.0, 0.25, 0.1),
          (1.3, 2.7, 0.7, 0.37)]
SCALES = [0.125, 0.5, 2.0, 8.0]
SEED = 5
# the `threshold` strategy's beta in the model; its image's is s times this
BETA = 0.8
# the power of s by which each simulate row's estimate, SE and target scale
SIMULATE_ROWS = {"per_stage_cost": 2, "mse_tx": 2, "mse_tx_pos": 2, "mse_tx_neg": 2,
                 "power": 0, "tx_frequency": 0, "bias_tx": 1}
# the power of s by which each sweep column scales; numeric_argmin searches
# z = lambda*beta, which R1 leaves unchanged, so beta_star_numeric is exact
SWEEP_COLUMNS = {"lambda": -1, "k": 0, "P_T": 0, "c": 2, "beta_star_formula": 1,
                 "beta_star_numeric": 1, "J_at_beta_star": 2, "j_mc_mean": 2,
                 "j_mc_std_error": 2}

STRATEGIES = ["optimal", "threshold", "always", "never", "noise_blind"]

by_model = pytest.mark.parametrize("model", MODELS, ids=lambda m: "-".join(f"{v:g}" for v in m))
by_scale = pytest.mark.parametrize("s", SCALES)


def _image(model, s):
    lam, k, p_t, c = model
    return lam / s, k, p_t, s * s * c


def _budget_image(model):
    lam, k, p_t, c = model
    return lam, k, 4.0 * p_t, c


def _run(tmp_path, command, model, **fields):
    """The exit code and JSON report of ``command`` on ``model``."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": SEED,
                               **dict(zip(("lambda", "k", "p_t", "c"), model)), **fields}))
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())


def _scaled(value, factor):
    return None if value is None else factor * value


def _simulate(tmp_path, strategy, *points):
    """The exit code and report of ``simulate`` at each (model, beta) point."""
    fields = {"strategy": strategy, "horizon": 200, "episodes": 10}
    return [_run(tmp_path, "simulate", model,
                 **fields, **({"beta": beta} if strategy == "threshold" else {}))
            for model, beta in points]


def _sweep_rows(tmp_path, *models):
    """The exit code and one-row ``sweep`` report with spot checks, per model."""
    runs = []
    for model in models:
        grids = {f"{key}_grid": [value] for key, value in zip(("lambda", "k", "p_t", "c"), model)}
        code, report = _run(tmp_path, "sweep", model, spot_check=True, spot_horizon=200,
                            spot_episodes=10, **grids)
        runs.append((code, report["rows"][0]))
    return runs


@by_scale
@by_model
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate(tmp_path, model, s, strategy):
    (base_code, base), (image_code, image) = _simulate(
        tmp_path, strategy, (model, BETA), (_image(model, s), BETA * s))
    assert image_code == base_code
    for want, got in zip(base["checks"], image["checks"], strict=True):
        metric = want["metric"]
        assert got["metric"] == metric
        factor = s ** SIMULATE_ROWS[metric]
        for key in ("estimate", "std_error", "target"):
            assert got[key] == _scaled(want[key], factor), (metric, key)
        assert (got["n"], got["z"], got["passed"]) == (want["n"], want["z"], want["passed"]), metric


@by_scale
@by_model
def test_sweep_formula_and_spot_columns(tmp_path, model, s):
    (want_code, want), (got_code, got) = _sweep_rows(tmp_path, model, _image(model, s))
    assert got_code == want_code
    for column, power in SWEEP_COLUMNS.items():
        assert got[column] == s ** power * want[column], column
    assert got["j_mc_within_4se"] == want["j_mc_within_4se"]


@by_scale
@by_model
def test_stationarity_stage_means(model, s):
    # the stage costs the F test grades scale by s², so F and p are equal
    costs = []
    for point in (model, _image(model, s)):
        p = SystemParams(*point)
        strat = ThresholdAffineStrategy(p, optimal_threshold(p))
        costs.append(stage_costs(p, strat, 20, 50, RngHandle(SEED)))
    base, image = costs
    assert np.array_equal(image, s * s * base)
    assert tuple(f_oneway(*image.T)) == tuple(f_oneway(*base.T))


@by_model
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate_under_a_4x_power_budget(tmp_path, model, strategy):
    (base_code, base), (image_code, image) = _simulate(
        tmp_path, strategy, (model, BETA), (_budget_image(model), BETA))
    assert image_code == base_code
    for want, got in zip(base["checks"], image["checks"], strict=True):
        if want["metric"] == "power":
            want = {**want, **{key: _scaled(want[key], 4.0)
                               for key in ("estimate", "std_error", "target")}}
        assert got == want


@by_model
def test_sweep_under_a_4x_power_budget(tmp_path, model):
    (base_code, want), (image_code, got) = _sweep_rows(tmp_path, model, _budget_image(model))
    assert image_code == base_code
    assert got == {**want, "P_T": 4.0 * want["P_T"]}
