"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLI = bench.import_remest()


def _run(name: str, trace: bool, tmp_path: Path) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.run(CLI, workloads.build(name, 3, "tiny"), 0.05, trace,
                         out=tmp_path, setup_repeats=2)
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_runs_and_reports_every_metric(name, tmp_path):
    result, summary = _run(name, False, tmp_path)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_JOBS + 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    work_name = workloads.build(name, 3, "tiny").work_name
    for label in ("setup_s", "wall_s", "wall_s.raw_median", "peak_mib", work_name, "failed_ratio"):
        assert f"  {label} " in summary
    assert '"nproc"' in summary and '"numpy"' in summary and '"config"' in summary


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer(name, tmp_path):
    result, _ = _run(name, True, tmp_path)
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert metrics["trace.absent"] == 0 and metrics["trace.flags"] == 0
    shares = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "%"}
    assert sum(shares.values()) <= 100.0
    assert list(tmp_path.glob("*-spans.jsonl.gz"))
    if name == "sweep_spot":
        spot = workloads.SIZES["tiny"]["sweep"][1] * 108
        assert metrics["distributions.substream.calls"] == spot
        assert metrics["analytics.numeric_argmin.calls"] == 108
    if name == "cf_matching":
        assert metrics["simulator.run_episode.calls"] == 0
        assert max(shares, key=shares.get) == "distributions.empirical_char_fn.share"


def _good_report(name: str, tmp_path: Path) -> tuple[dict, workloads.Workload]:
    runner = bench.Runner(CLI, workloads.build(name, 5, "tiny"), tmp_path / name)
    job = runner.run()
    assert job.problems == []
    return json.loads(runner.report_path.read_text()), runner.workload


def _moved_10_se(name: str, report: dict) -> None:
    if name == "simulate_long":
        row = report["checks"][0]
        row["estimate"] += 10 * row["std_error"]
    elif name == "sweep_spot":
        row = report["rows"][7]
        row["j_mc_mean"] += 10 * row["j_mc_std_error"]
    else:
        pt = report["empirical"]["points"][30]
        pt["lhs_re"] += 0.05
        pt["residual"] = abs(complex(pt["lhs_re"] - pt["rhs_re"], pt["lhs_im"] - pt["rhs_im"]))
        report["empirical"]["max_residual"] = max(
            p["residual"] for p in report["empirical"]["points"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_planted_bad_reports_trip_the_gate(name, tmp_path):
    report, workload = _good_report(name, tmp_path)
    assert workload.gate(report, workload.config) == []

    moved = json.loads(json.dumps(report))
    _moved_10_se(name, moved)
    assert workload.gate(moved, workload.config)

    flipped = json.loads(json.dumps(report))
    flipped["passed"] = False
    assert workload.gate(flipped, workload.config)

    short = json.loads(json.dumps(report))
    key = {"sweep_spot": "rows", "simulate_long": "checks"}.get(name)
    if key:
        short[key] = short[key][:-1]
    else:
        short["analytic"]["points"] = short["analytic"]["points"][:-1]
    assert workload.gate(short, workload.config)


def test_gate_failure_and_digest_mismatch_count_as_failed(tmp_path):
    runner = bench.Runner(CLI, workloads.build("simulate_long", 5, "tiny"), tmp_path)
    runner.run()
    runner.digest = "0" * 64
    job = runner.run()
    assert runner.failed == 1 and any("differ" in p for p in job.problems)

    planted = bench.Runner(CLI, workloads.build("simulate_long", 5, "tiny"), tmp_path / "p")
    planted.workload = workloads.Workload(**{**planted.workload.__dict__,
                                             "gate": lambda report, cfg: ["planted"]})
    planted.run()
    assert planted.failed == 1


def test_absent_target_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("distributions.gone", "distributions", "no_such_function", None),
        ("simulator.gone", "no_such_module", "run_episode", None),
    ))
    import remest.simulator as simulator

    before = simulator.run_episode
    with tracing.Patch(tracing.Recorder()) as patch:
        assert simulator.run_episode is not before
    assert simulator.run_episode is before
    assert "distributions.no_such_function" in patch.absent
    assert "no_such_module.run_episode" in patch.absent
    empty = {name: value for name, value, _ in tracing.layer_metrics([tracing.LayerTotals()])}
    assert empty["simulator.run_episode.calls"] == 0


def test_patch_reaches_names_imported_elsewhere():
    import remest.cli as cli
    import remest.distributions as distributions
    import remest.simulator as simulator

    recorder = tracing.Recorder()
    with tracing.Patch(recorder):
        assert simulator.sample_gamma is distributions.sample_gamma
        assert cli.sample_gamma is distributions.sample_gamma
        assert cli._COMMANDS["sweep"] is cli.cmd_sweep
        rng = distributions.RngHandle(1)
        simulator.sample_gamma(distributions.GammaDist(2.0, 1.0), rng.substream(0), size=5)
    names = [s.name for s in recorder.spans]
    assert names == ["distributions.substream", "distributions.sample_gamma"]
    assert recorder.spans[1].attrs == {"draws": 5}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cf_matching", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
