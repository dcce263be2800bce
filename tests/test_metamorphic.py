"""The exact scale relation R1, checked without a tolerance.

The image of the model (lambda, k, p_t, c) under a power of two s is
(lambda/s, k, p_t, s²·c).  Under the same seed it draws the same uniforms:
the source x and the estimate x_hat scale by s, while the transmit
decisions, the payload y and the noise v stay equal.  Multiplying by a power
of two is exact in binary floating point, so every cost-like statistic, its
standard error and its target scale by s² bit for bit, ``bias_tx`` scales
by s, and ``power``, ``tx_frequency``, every z and every verdict stay equal.
"""

import json

import pytest

from remest.analytics import optimal_threshold
from remest.cli import main
from remest.distributions import RngHandle
from remest.simulator import stationarity_check
from remest.strategies import SystemParams, ThresholdAffineStrategy

MODELS = [(1.0, 2.0, 1.0, 1.0), (0.5, 0.5, 4.0, 10.0), (2.0, 5.0, 0.25, 0.1),
          (1.3, 2.7, 0.7, 0.37)]
SCALES = [0.125, 0.5, 2.0, 8.0]
SEED = 5
# the `threshold` strategy's beta in the model; its image's is s times this
BETA = 0.8
# the power of s by which each simulate row's estimate, SE and target scale
SIMULATE_ROWS = {"per_stage_cost": 2, "mse_tx": 2, "mse_tx_pos": 2, "mse_tx_neg": 2,
                 "power": 0, "tx_frequency": 0, "bias_tx": 1}
# the power of s by which each sweep column scales; beta_star_numeric is
# left out: numeric_argmin starts its bracket at the fixed beta = 10, so it
# is not exact under R1 (ROADMAP item 12)
SWEEP_COLUMNS = {"lambda": -1, "k": 0, "P_T": 0, "c": 2, "beta_star_formula": 1,
                 "J_at_beta_star": 2, "j_mc_mean": 2, "j_mc_std_error": 2}

pytestmark = [
    pytest.mark.parametrize("model", MODELS, ids=lambda m: "-".join(f"{v:g}" for v in m)),
    pytest.mark.parametrize("s", SCALES),
]


def _image(model, s):
    lam, k, p_t, c = model
    return lam / s, k, p_t, s * s * c


def _run(tmp_path, command, model, **fields):
    """The exit code and JSON report of ``command`` on ``model``."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"schema_version": 1, "seed": SEED,
                               **dict(zip(("lambda", "k", "p_t", "c"), model)), **fields}))
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())


def _scaled(value, factor):
    return None if value is None else factor * value


@pytest.mark.parametrize("strategy", ["optimal", "threshold", "always", "never", "noise_blind"])
def test_simulate(tmp_path, model, s, strategy):
    runs = []
    for point, beta in ((model, BETA), (_image(model, s), BETA * s)):
        fields = {"strategy": strategy, "horizon": 200, "episodes": 10}
        runs.append(_run(tmp_path, "simulate", point,
                         **fields, **({"beta": beta} if strategy == "threshold" else {})))
    (base_code, base), (image_code, image) = runs
    assert image_code == base_code
    for want, got in zip(base["checks"], image["checks"], strict=True):
        metric = want["metric"]
        assert got["metric"] == metric
        factor = s ** SIMULATE_ROWS[metric]
        for key in ("estimate", "std_error", "target"):
            assert got[key] == _scaled(want[key], factor), (metric, key)
        assert (got["n"], got["z"], got["passed"]) == (want["n"], want["z"], want["passed"]), metric


def test_sweep_formula_and_spot_columns(tmp_path, model, s):
    # the argmin check reads beta_star_numeric, so the exit codes may differ
    rows = []
    for point in (model, _image(model, s)):
        grids = {f"{key}_grid": [value] for key, value in zip(("lambda", "k", "p_t", "c"), point)}
        rows += _run(tmp_path, "sweep", point, spot_check=True, spot_horizon=200,
                     spot_episodes=10, **grids)[1]["rows"]
    want, got = rows
    for column, power in SWEEP_COLUMNS.items():
        assert got[column] == s ** power * want[column], column
    assert got["j_mc_within_4se"] == want["j_mc_within_4se"]


def test_stationarity_stage_means(model, s):
    reports = []
    for point in (model, _image(model, s)):
        p = SystemParams(*point)
        strat = ThresholdAffineStrategy(p, optimal_threshold(p))
        reports.append(stationarity_check(p, strat, 20, 50, RngHandle(SEED)))
    base, image = reports
    assert [(est.mean, est.std_error) for est in image.stage_means] == [
        (s * s * est.mean, s * s * est.std_error) for est in base.stage_means]
    assert (image.max_pairwise_z, image.passed) == (base.max_pairwise_z, base.passed)
