"""Planted one-line mutants that the tests must catch.

Each row of MUTANTS names a module of ``src/remest``, a text in it, the text
that replaces it, and the tests that must fail on the mutant.  A row copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory, applies
its edit there (the text must occur exactly once), and runs the named tests
with ``pytest -x`` in a subprocess against the copy.  The run must fail: a
test fails, not an import or a collection.  The control row makes no edit,
and its run must pass, so a row passes only through its mutant.

Each row starts a fresh interpreter that imports numpy and scipy and
collects the named modules: 0.5-1.5 s a row, and about 10 s for the module,
on 2 vCPUs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.slow

CHAR_FN = "tests/test_distributions.py::TestBlockedCharFn::test_matches_direct_means"
BRANCH_GUARD = ("tests/test_cli.py::TestValidation::"
                "test_grid_off_the_matched_pairs_branch_is_config_error")

# id: (module, old text, new text, tests that must kill the mutant)
MUTANTS = {
    # lam²·J with its constant 2, where rounding loses the cost's dip
    "argmin-objective-keeps-its-2": (
        "analytics.py", "return math.exp(-z) * (tx_cost",
        "return 2.0 + math.exp(-z) * (tx_cost",
        ["tests/test_analytics.py::TestNumericArgmin::"
         "test_agrees_where_the_cost_dips_little_below_its_plateau"]),
    # the conjugate half on every grid, symmetric about 0 or not
    "conjugate-half-on-any-grid": (
        "distributions.py", "start == -stop", "True", [CHAR_FN]),
    # the matched pair's guard lets a step turn the noise phase by up to 4·pi
    "branch-guard-at-4-pi": (
        "cli.py", "step < math.pi", "step < 4 * math.pi", [BRANCH_GUARD]),
    # the Laplace CF right only at scale 1
    "laplace-cf-inverse-scale": (
        "distributions.py", "(w * dist.scale) ** 2", "(w / dist.scale) ** 2",
        ["tests/test_distributions.py::TestCharFn::"
         "test_laplace_is_the_fourier_integral_of_its_density"]),
    "sweep-spot-check-at-8-se": (
        "cli.py", "mc.covers(j_formula, SIGMAS)", "mc.covers(j_formula, 2 * SIGMAS)",
        ["tests/test_cli.py::TestSweep::test_a_row_6_se_off_fails_the_spot_checks"]),
    "stationarity-z-max-6": (
        "simulator.py", "STATIONARITY_Z_MAX = 4.0", "STATIONARITY_Z_MAX = 6.0",
        ["tests/test_simulator.py::TestStationarity::test_a_max_z_between_4_and_6_fails"]),
    "min-transmissions-10": (
        "simulator.py", "MIN_TRANSMISSIONS = 100", "MIN_TRANSMISSIONS = 10",
        ["tests/test_simulator.py::TestConditionalFold::test_tens_of_transmissions_are_too_few"]),
    "modulus-floor-1e-2": (
        "matching.py", "EMPIRICAL_MODULUS_FLOOR = 1e-3", "EMPIRICAL_MODULUS_FLOOR = 1e-2",
        ["tests/test_matching.py::TestEmpiricalModulusFloor::"
         "test_points_are_unreliable_exactly_below_1e_3"]),
}


def _run(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``tests`` in ``copy``, importing remest from its ``src``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=600)


def _copy(tmp_path: Path) -> Path:
    copy = tmp_path / "repo"
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, tmp_path):
    module, old, new, tests = MUTANTS[name]
    copy = _copy(tmp_path)
    path = copy / "src" / "remest" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {module}"
    path.write_text(text.replace(old, new))
    done = _run(copy, tests)
    # exit 1: tests ran and one failed; 2-5 are errors of the run itself
    assert done.returncode == 1, f"{name} survived\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def test_control_without_a_mutant_passes(tmp_path):
    tests = sorted({test for _, _, _, named in MUTANTS.values() for test in named})
    done = _run(_copy(tmp_path), tests)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
