"""End-to-end benchmark of the ``remest`` CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {sweep_spot,simulate_long,cf_matching}
                         --seed N --seconds S --trace {0,1}

One process, one client, closed loop: jobs run one after another through
``remest.cli.main`` on the workload's config, built from the seed (see
``workloads.py``).  The first job runs under ``tracemalloc`` for the peak
memory of one job and warms caches; the timed jobs follow.  Every job's
report is checked by the workload's gate and must be byte-identical to the
first; a job that exits nonzero, fails the gate or differs counts as failed.

``--trace 0`` measures set-up (fresh interpreters importing ``remest.cli``)
and times untraced jobs for S seconds.  Reference passes run between the
measured operations and every reported time is in reference seconds (see
``reference.py``); raw wall times are printed beside them.

``--trace 1`` alternates untraced and traced jobs for S seconds.  Traced
jobs record spans around each module's public functions (see
``tracing.py``); the run reports per-layer counts and self times, the times
as a share of the traced job, and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance, the exact config and every metric by name and unit.
Without ``src/remest`` next to ``bench/`` the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
SETUP_REFERENCE = "stream"
REF_SHARE = 0.15  # reference passes after each operation, as a share of its time
MIN_JOBS = 3
TAIL_BEYOND = 10


class SourceMissing(RuntimeError):
    pass


def import_remest():
    """Import ``remest`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "remest" / "cli.py").is_file():
        raise SourceMissing(f"no remest sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import remest.cli

    if Path(remest.cli.__file__).resolve().parent != (SRC / "remest").resolve():
        raise SourceMissing(f"remest was imported from {remest.cli.__file__}, not {SRC}")
    return remest.cli


@dataclass
class Job:
    wall: float
    problems: list
    report_bytes: int = 0


@dataclass
class Runner:
    """Runs jobs of one workload and tallies failures and report digests."""

    cli: object
    workload: workloads.Workload
    work_dir: Path
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    problems: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_dir / "config.json"
        self.report_path = self.work_dir / "report.json"
        self.config_path.write_text(json.dumps(self.workload.config, indent=2, sort_keys=True))
        self.argv = [self.workload.command, "--config", str(self.config_path),
                     "--out", str(self.report_path)]

    def run(self, recorder: tracing.Recorder | None = None) -> Job:
        """One job through ``cli.main``; the time covers only that call."""
        if self.report_path.exists():
            self.report_path.unlink()
        gc.collect()
        exit_code = error = None
        root = recorder.open("cli.main") if recorder is not None else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                exit_code = self.cli.main(self.argv)
        except SystemExit as exc:
            exit_code = exc.code
        except Exception as exc:  # a crashing job is a failed operation, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if root is not None:
            recorder.close(root)
        job = Job(wall=wall, problems=[])
        if error is not None:
            job.problems.append(f"job raised {error}")
        elif exit_code != 0:
            job.problems.append(f"exit code {exit_code!r}")
        self._check_report(job)
        return job

    def _check_report(self, job: Job) -> None:
        self.attempted += 1
        try:
            data = self.report_path.read_bytes()
        except OSError as exc:
            job.problems.append(f"no report: {exc}")
            data = None
        if data is not None:
            job.report_bytes = len(data)
            digest = hashlib.sha256(data).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                job.problems.append(f"report bytes differ from the first job ({digest})")
            try:
                job.problems += self.workload.gate(json.loads(data), self.workload.config)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                job.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
        if job.problems:
            self.failed += 1
            self.problems.append(job.problems)
            for problem in job.problems[:5]:
                print(f"bench: job {self.attempted} failed: {problem}", file=sys.stderr)


class Timer:
    """Times operations and the reference passes that follow each one."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.times: list[float] = []
        self.refs: list[float] = [reference.timed(kind)]

    def add(self, seconds: float) -> None:
        self.times.append(seconds)
        spent = 0.0
        while spent < REF_SHARE * seconds or spent == 0.0:
            self.refs.append(reference.timed(self.kind))
            spent += self.refs[-1]

    def scaled(self) -> float:
        return reference.scaled(self.times, self.refs)


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the children it starts, on one CPU, so that a
    child and the reference passes between children see the same CPU."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if allowed:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)


def measure_setup(repeats: int) -> Timer:
    """Fresh interpreters that run ``import remest.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with one_cpu():
        timer = Timer(SETUP_REFERENCE)
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import remest.cli"], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
            timer.add(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"import remest.cli failed: {proc.stderr.decode()[-500:]}")
    return timer


def measure_peak(runner: Runner) -> tuple[int, Job]:
    """Peak traced memory of one job, in bytes."""
    tracemalloc.start()
    try:
        job = runner.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, job


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with TAIL_BEYOND samples above it, its
    percentile and the count above it (the maximum when there are too few)."""
    ordered = sorted(samples)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    i = len(ordered) - 1 - beyond
    return ordered[i], 100.0 * i / max(len(ordered) - 1, 1), beyond


def provenance(workload: workloads.Workload) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "remest").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": workload.config["seed"],
        "workload": workload.name,
        "command": workload.command,
        "config": workload.config,
    }


def _fmt(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value!r:>24} {unit:<6} {note}".rstrip()


def end_to_end(runner: Runner, seconds: float, setup_repeats: int, peak: int):
    """Set-up and timed untraced jobs; returns (metrics, summary lines, samples)."""
    workload = runner.workload
    setup = measure_setup(setup_repeats)
    jobs = Timer(workload.reference)
    start = time.perf_counter()
    while len(jobs.times) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.add(runner.run().wall)

    wall = jobs.scaled()
    metrics = {
        "setup_s": {"value": setup.scaled(), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_mib": {"value": peak / 2**20, "unit": "MiB"},
    }
    raw = statistics.median(jobs.times)
    tail_s, tail_pct, beyond = tail(jobs.times)
    lines = [
        _fmt("setup_s", setup.scaled(), "s", f"{len(setup.times)} fresh interpreters; raw median "
             f"{statistics.median(setup.times):.4f} s"),
        _fmt("wall_s", wall, "s", f"mean of {len(jobs.times)} jobs"),
        _fmt("wall_s.raw_median", raw, "s", f"median of {len(jobs.times)} jobs"),
        _fmt(f"wall_s.raw_p{tail_pct:.0f}", tail_s, "s",
             f"highest percentile with {beyond} of {len(jobs.times)} jobs beyond it"),
        _fmt(workload.work_name, workload.work / wall, "1/s",
             f"{workload.work} per job / wall_s; raw {workload.work / raw:.6g} 1/s"),
        _fmt("peak_mib", peak / 2**20, "MiB", "tracemalloc peak of one job"),
        f"  times are in reference seconds: {reference.REF_S} s per reference pass "
        f"({workload.reference}; setup: {SETUP_REFERENCE}); raw reference median "
        f"{statistics.median(jobs.refs):.4f} s",
    ]
    samples = {"setup_s": setup.times, "setup_ref_s": setup.refs,
               "wall_s": jobs.times, "ref_s": jobs.refs}
    return metrics, lines, samples


def per_layer(runner: Runner, seconds: float, peak: int, peak_job: Job, spans_path: Path):
    """Alternating untraced and traced jobs; returns (metrics, summary lines, samples)."""
    workload = runner.workload
    plain, traced, totals = [], [], []
    absent: list[str] = []
    start = time.perf_counter()
    with gzip.open(spans_path, "wt", compresslevel=1) as spans:
        while len(traced) < MIN_JOBS or time.perf_counter() - start < seconds:
            plain.append(runner.run().wall)
            recorder = tracing.Recorder()
            with tracing.Patch(recorder) as patch:
                traced.append(runner.run(recorder).wall)
            absent = patch.absent
            totals.append(tracing.LayerTotals.from_spans(recorder.spans))
            for span in recorder.spans:
                spans.write(json.dumps({"job": len(traced) - 1, **span.to_json_dict()}) + "\n")

    job_s = statistics.fmean(traced)
    stages = workload.work if workload.work_name == "stages_per_s" else 0
    missing = [name for name in workload.must_hit if not any(t.calls.get(name) for t in totals)]
    metrics, lines = {}, []
    for name, value, unit in tracing.layer_metrics(totals):
        if unit == "s":
            metrics[name] = {"value": 100.0 * value / job_s, "unit": "%"}
            lines.append(_fmt(name, metrics[name]["value"], "%", f"{value:.6f} s per job"))
        else:
            metrics[name] = {"value": value, "unit": unit}
            lines.append(_fmt(name, value, unit))
    extra = {
        "simulator.peak_bytes_per_stage": (peak / stages if stages else 0.0, "B"),
        "cli.report_bytes": (peak_job.report_bytes, "B"),
        "trace.wall_s": (job_s, "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
        "trace.absent": (len(absent), "count"),
        "trace.flags": (len(missing), "count"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
        lines.append(_fmt(name, value, unit))
    for label in absent:
        print(f"bench: trace target {label} not found; recorded as absent", file=sys.stderr)
    for name in missing:
        print(f"bench: FLAG {workload.name} must hit {name} but recorded no span", file=sys.stderr)
    lines.append(f"  {len(traced)} traced and {len(plain)} untraced jobs; spans in {spans_path}")
    return metrics, lines, {"wall_s": plain, "trace.wall_s": traced}


def run(cli, workload: workloads.Workload, seconds: float, trace: bool, out: Path = OUT,
        setup_repeats: int = SETUP_REPEATS) -> int:
    """One benchmark run; prints the summary and, last, the result line."""
    tag = f"{workload.name}-seed{workload.config['seed']}-trace{int(trace)}"
    runner = Runner(cli, workload, out / tag)
    prov = provenance(workload)
    peak, peak_job = measure_peak(runner)  # also the warm-up before any timing
    if trace:
        metrics, lines, samples = per_layer(runner, seconds, peak, peak_job,
                                            out / f"{tag}-spans.jsonl.gz")
    else:
        metrics, lines, samples = end_to_end(runner, seconds, setup_repeats, peak)
    lines.append(_fmt("failed_ratio", runner.failed / runner.attempted, "ratio",
                      f"{runner.failed} of {runner.attempted} jobs"))
    lines.append(f"  report_sha256 {runner.digest}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (out / f"{tag}.json").write_text(json.dumps(
        {**result, "provenance": prov, "report_sha256": runner.digest, "samples": samples,
         "problems": runner.problems[:10]}, indent=2, sort_keys=True))
    print(f"bench {workload.name} seed {workload.config['seed']} trace {int(trace)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cli = import_remest()
    except (SourceMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    return run(cli, workloads.build(args.workload, args.seed), args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
