"""Golden report digests: the SHA-256 of 18 small CLI reports.

Nine configs cover every command and every strategy; each runs in-process
through ``cli.main`` and writes its report once as JSON and once as CSV.
numpy's samplers and its SIMD ``sin``/``cos`` define the bits of a report, so
``golden_digests.json`` is keyed by numpy version and machine architecture.
On a key with no entry the tests skip and name it. Beside its digests each
entry keeps the report's headline check values, so a digest that moves shows
what moved and by how much.

A change that moves report values on purpose rewrites the entry of the
running key with ``python tests/test_golden.py`` and states the old and new
headline values in CHANGES.md. Before it rewrites the file, that command
prints each case whose JSON or CSV digest changed, with the headline values
recorded for it and the new ones.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__" and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from remest.cli import main  # noqa: E402

DIGESTS = Path(__file__).with_name("golden_digests.json")
MODEL = {"schema_version": 1, "lambda": 1.0, "k": 2.0, "p_t": 1.0, "c": 1.0, "seed": 1}
EPISODES = {"horizon": 2_000, "episodes": 20}
CASES = {
    "simulate-optimal": ("simulate", {**EPISODES, "strategy": "optimal"}),
    "simulate-threshold": ("simulate", {**EPISODES, "strategy": "threshold", "beta": 0.8}),
    "simulate-always": ("simulate", {**EPISODES, "strategy": "always"}),
    "simulate-never": ("simulate", {**EPISODES, "strategy": "never"}),
    "simulate-noise_blind": ("simulate", {**EPISODES, "strategy": "noise_blind"}),
    "optimize": ("optimize", EPISODES),
    "verify-matching-matched": ("verify-matching", {"pair": "matched", "samples": 50_000}),
    "verify-matching-unmatched": ("verify-matching", {"pair": "unmatched", "samples": 50_000}),
    "sweep-spot": ("sweep", {"spot_check": True, "spot_horizon": 100, "spot_episodes": 10}),
}


def platform_key() -> str:
    return f"numpy-{np.__version__}-{platform.machine()}"


def run_case(name: str, directory: Path) -> dict:
    """Both reports of one case: their digests and the headline check values."""
    command, fields = CASES[name]
    config = directory / f"{name}-config.json"
    config.write_text(json.dumps({**MODEL, **fields}))
    entry = {}
    for fmt in ("json", "csv"):
        out = directory / f"{name}.{fmt}"
        main([command, "--config", str(config), "--format", fmt, "--out", str(out)])
        entry[f"{fmt}_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    report = json.loads((directory / f"{name}.json").read_text())
    entry["passed"] = report["passed"]
    entry["checks"] = {c["metric"]: c["estimate"] for c in report["checks"]}
    return entry


@pytest.mark.parametrize("name", CASES)
def test_report_digests(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text()).get(platform_key())
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {platform_key()}")
    got = run_case(name, tmp_path)
    assert got == recorded[name], (
        f"{name} reports moved\nrecorded: {recorded[name]}\nnow:      {got}"
    )


def headline(entry: dict) -> str:
    return f"passed={entry.get('passed')} checks={json.dumps(entry.get('checks'), sort_keys=True)}"


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = table.get(platform_key(), {})
    with tempfile.TemporaryDirectory() as tmp:
        table[platform_key()] = {name: run_case(name, Path(tmp)) for name in CASES}
    for name, entry in table[platform_key()].items():
        old = recorded.get(name, {})
        moved = [key for key in ("json_sha256", "csv_sha256") if old.get(key) != entry[key]]
        if moved:
            print(f"{name}: {' and '.join(moved)} changed")
            print(f"  old: {headline(old)}")
            print(f"  new: {headline(entry)}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"{DIGESTS}: wrote {len(CASES)} entries for {platform_key()}")
