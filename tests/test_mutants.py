"""Planted one-line mutants that the tests must catch.

Each row of MUTANTS names a module of ``src/remest``, a text in it, the text
that replaces it, and the tests that must fail on the mutant.  A row copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory, applies
its edit there (the text must occur exactly once), and runs the named tests
with ``pytest -x`` in a subprocess against the copy.  The run must fail: a
test fails, not an import or a collection.  The control row makes no edit,
and its run must pass, so a row passes only through its mutant.

Each row starts a fresh interpreter that imports numpy and scipy and collects
the named modules, 0.5-2.5 s a row.  The rows therefore run concurrently: the
first test of the module starts every selected row, the control included,
on a thread pool of at most ``os.cpu_count()`` workers, each thread waiting
on one ``subprocess.run``, and each test then reads the outcome of its row.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
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
        "analytics.py", "return (ratio + dz) * p1 < 0.0",
        "return 2.0 + math.exp(-z1) * p1 < 2.0 + math.exp(-z2) * p2",
        ["tests/test_analytics.py::TestNumericArgmin::"
         "test_agrees_where_the_cost_dips_little_below_its_plateau"]),
    # f's values themselves, tied at 0 once e^(-z) underflows
    "argmin-compares-underflowing-values": (
        "analytics.py", "return (ratio + dz) * p1 < 0.0",
        "return math.exp(-z1) * p1 < math.exp(-z2) * p2",
        ["tests/test_analytics.py::TestNumericArgmin::"
         "test_places_z_where_e_to_the_minus_z_underflows[1.0-1000000.0]"]),
    # log(P1/P2) from the two rounded P, which cancel near a large z*
    "argmin-log-of-the-rounded-ratio": (
        "analytics.py",
        "math.log1p(step) if abs(step) < 0.5 else math.log(abs(p1)) - math.log(abs(p2))",
        "math.log(abs(p1)) - math.log(abs(p2))",
        ["tests/test_analytics.py::TestNumericArgmin::"
         "test_places_z_where_e_to_the_minus_z_underflows[1048576.0-1000.0]"]),
    # the noise-blind decoder graded against the matched decoder's error m
    "blind-graded-as-matched": (
        "analytics.py", "p.k * (p.k + 1.0) / lam**2", "p.m",
        ["tests/test_cli.py::TestSimulate::test_noise_blind_grades_every_row_against_its_own_law"]),
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
    # the decoder's offset s·(shrink/lam + beta) with lam in the numerator,
    # right only at lam = 1
    "decoder-lambda-swap": (
        "strategies.py", "shrink / p.lam + self.beta", "shrink * p.lam + self.beta",
        ["tests/test_analytics.py::TestTransmissionErrorOracle::test_maps_meet_the_closed_form"]),
    "sweep-spot-check-at-8-se": (
        "cli.py", "mc.covers(j_formula, SIGMAS)", "mc.covers(j_formula, 2 * SIGMAS)",
        ["tests/test_cli.py::TestSweep::test_a_row_6_se_off_fails_the_spot_checks"]),
    "min-transmissions-10": (
        "simulator.py", "MIN_TRANSMISSIONS = 100", "MIN_TRANSMISSIONS = 10",
        ["tests/test_simulator.py::TestConditionalFold::test_tens_of_transmissions_are_too_few"]),
    # the conditional fold's raw sums, Σd² - (Σd)²/n with no shift
    "fold-zero-shift": (
        "simulator.py", "shift = np.add.reduce(d[:3], axis=1, keepdims=True) / b.on.size",
        "shift = np.zeros((3, 1))",
        ["tests/test_simulator.py::TestConditionalFold::"
         "test_matches_fsum_moments[offset-decoder]"]),
    # the negative branch as the total less the positive one, whose pooled
    # sum of squares overflows where the branch's own does not
    "fold-total-less-positive": (
        "simulator.py", "total, squares = np.add.reduce(sums[:, pooled], axis=1)",
        "total, squares = (sums[:, 2] + sums[:, 3]) - sums[:, 3] if pooled == (2,) "
        "else np.add.reduce(sums[:, pooled], axis=1)",
        ["tests/test_simulator.py::TestConditionalFold::"
         "test_extreme_scale_overflows_where_each_rows_m2_does[80-finite1]"]),
    # the positive branch's MSE pooled from the negative branch's err² row
    "table-sign-rows-swapped": (
        "simulator.py", '"mse_tx_pos": ((3,), "pos")', '"mse_tx_pos": ((2,), "pos")',
        ["tests/test_simulator.py::TestConditionalFold::test_matches_fsum_moments[optimal]"]),
    # (s·s)/n, where s² overflows and the sum of squares does not
    "fold-s-squared-over-n": (
        "simulator.py", "total / n * total", "total * total / n",
        ["tests/test_simulator.py::TestConditionalFold::"
         "test_extreme_scale_with_a_one_sample_shift"]),
    # the noise drawn ahead of the source, which moves both
    "noise-before-source": (
        "simulator.py", "x = sample_laplace(",
        "sample_gamma(noise, sub, size=1); x = sample_laplace(",
        ["tests/test_simulator.py::TestRunEpisode::test_block_i_draws_from_substream_i"]),
    # a transmitting stage's cost without the communication cost c
    "stage-cost-without-c": (
        "simulator.py", "np.put(cost, on, np.square(err_on) + p.c)",
        "np.put(cost, on, np.square(err_on))",
        ["tests/test_simulator.py::TestTransmitSetKernel::test_estimate_cost[optimal-100]"]),
    # the transmit set's error as x - x_hat, which flips the bias row
    "err-sign-flipped": (
        "simulator.py", "err_on = strat.decode(t_on, y_on + v_on, s_on) - x_on",
        "err_on = x_on - strat.decode(t_on, y_on + v_on, s_on)",
        ["tests/test_simulator.py::TestConditionalFold::test_matches_fsum_moments[optimal]"]),
    "modulus-floor-1e-2": (
        "matching.py", "EMPIRICAL_MODULUS_FLOOR = 1e-3", "EMPIRICAL_MODULUS_FLOOR = 1e-2",
        ["tests/test_matching.py::TestEmpiricalModulusFloor::"
         "test_points_are_unreliable_exactly_below_1e_3"]),
}


def _run(tmp: Path, edit: tuple[str, str, str] | None, tests: list[str]):
    """``pytest -x`` on ``tests`` in a copy of the tree in ``tmp``, importing
    remest from its ``src``, with ``edit`` (module, old text, new text) made
    first; the old text must occur once."""
    copy = tmp / "repo"
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
    if edit is not None:
        module, old, new = edit
        path = copy / "src" / "remest" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {module}"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def runs(request, tmp_path_factory):
    """The pending run of each selected row, keyed by its id; the control's
    key is None."""
    rows = {name: (MUTANTS[name][:3], MUTANTS[name][3]) for name in MUTANTS}
    rows[None] = (None, sorted({test for *_, named in MUTANTS.values() for test in named}))
    selected = {item.callspec.params["name"] if item.function is test_mutant_is_killed else None
                for item in request.session.items if getattr(item, "function", None)
                in (test_mutant_is_killed, test_control_without_a_mutant_passes)}
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(selected))) as pool:
        yield {name: pool.submit(_run, tmp_path_factory.mktemp("mutant"), *rows[name])
               for name in selected}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, runs):
    done = runs[name].result()
    # exit 1: tests ran and one failed; 2-5 are errors of the run itself
    assert done.returncode == 1, f"{name} survived\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def test_control_without_a_mutant_passes(runs):
    done = runs[None].result()
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
