"""The benchmark's own correctness gates, run on the CLI's reports.

``bench/workloads.py`` builds each benchmark workload's config and judges
the report independently of the CLI: it reads the check and row keys and
recomputes every target. A report shape or a config schema that the gate
cannot read fails here, at the tiny size and on seed 1, before it fails a
benchmark run. The module is loaded from its file and is not changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from remest.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_report_passes_the_benchmark_gate(name, tmp_path):
    workload = workloads.build(name, 1, "tiny")
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(workload.config))
    assert main([workload.command, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert workload.gate(report, workload.config) == []
