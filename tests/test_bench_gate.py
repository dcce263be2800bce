"""The benchmark's own correctness gates and trace seams, run against the
library.

``bench/workloads.py`` builds each benchmark workload's config and judges
the report independently of the CLI: it reads the check and row keys and
recomputes every target. A report shape or a config schema that the gate
cannot read fails here, at the tiny size and on seed 1, before it fails a
benchmark run. ``bench/tracing.py`` wraps named functions and the policy
class of ``remest`` to time each layer; a seam that a change deletes or
renames fails here too. Both modules are loaded from their files and are not
changed.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from remest.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


def _bindings():
    """Every value a ``remest`` module holds by name, by dict key or by
    class attribute, the places the tracer patches."""
    out = {}
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "remest"]:
        for key, value in vars(module).items():
            out[module.__name__, key] = value
            if isinstance(value, dict):
                out.update(((module.__name__, key, k), v) for k, v in value.items())
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                out.update(((module.__name__, key, "." + k), v) for k, v in vars(value).items())
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_report_passes_the_benchmark_gate(name, tmp_path):
    workload = workloads.build(name, 1, "tiny")
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(workload.config))
    assert main([workload.command, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert workload.gate(report, workload.config) == []


def test_cf_matching_route_hits_every_must_hit_span(tmp_path):
    # a refactor that bypasses a sampler or the empirical CF records no span for it
    workload = workloads.build("cf_matching", 1, "tiny")
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(workload.config))
    recorder = tracing.Recorder()
    with tracing.Patch(recorder):
        assert main([workload.command, "--config", str(config), "--out", str(out)]) == 0
    recorded = {span.name for span in recorder.spans}
    assert set(workload.must_hit) - recorded == set()


def test_every_trace_seam_exists_and_is_restored():
    before = _bindings()
    with tracing.Patch(tracing.Recorder()) as patch:
        assert patch.absent == []
        inside = _bindings()
        wrapped = [key for key, value in before.items() if inside[key] is not value]
        assert ("remest.cli", "_COMMANDS", "simulate") in wrapped
        assert ("remest.strategies", "ThresholdAffineStrategy", ".transmit") in wrapped
    after = _bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
