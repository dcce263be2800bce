"""Spans around the public functions of each ``remest`` module.

The program carries no tracing of its own, so the benchmark wraps functions
from outside: :class:`Patch` replaces each target in every ``remest`` module
namespace (and every dict in such a namespace) that holds it, records one
span per call, and restores the originals on exit.  A target that no longer
exists is reported as absent and yields zero counts, never an error, so the
benchmark keeps running when later changes rename or delete functions.

A span is (name, start, end, parent, thread, attrs).  A layer's self time is
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    thread: int = 0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread, "attrs": self.attrs or {},
        }


class Recorder:
    """In-memory span list; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append(Span(
            name=name, start=time.perf_counter(),
            parent=stack[-1] if stack else -1, thread=threading.get_ident(),
        ))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        return span


def _result_size(args, kwargs, result) -> dict:
    return {"draws": int(np.size(result))}


def _cf_evals(args, kwargs, result) -> dict:
    samples = args[0] if args else kwargs.get("samples", ())
    return {"evals": int(np.size(samples)) * int(np.size(result))}


def _episode(args, kwargs, result) -> dict:
    u = getattr(result, "u", None)
    return {
        "stages": int(getattr(result, "horizon", 0)),
        "tx": int(np.count_nonzero(u)) if u is not None else 0,
    }


# (span name, module, attribute path, attrs taken from the call)
TARGETS = (
    ("distributions.substream", "distributions", "RngHandle.substream", None),
    ("distributions.sample_laplace", "distributions", "sample_laplace", _result_size),
    ("distributions.sample_gamma", "distributions", "sample_gamma", _result_size),
    ("distributions.sample_exponential", "distributions", "sample_exponential", _result_size),
    ("distributions.empirical_char_fn", "distributions", "empirical_char_fn", _cf_evals),
    ("simulator.run_episode", "simulator", "run_episode", _episode),
    ("simulator.estimate_cost", "simulator", "estimate_cost", None),
    ("simulator.estimate_conditional_stats", "simulator", "estimate_conditional_stats", None),
    ("simulator.from_samples", "simulator", "MonteCarloEstimate.from_samples", None),
    ("matching.check_matching", "matching", "check_matching", None),
    ("matching.check_matching_empirical", "matching", "check_matching_empirical", None),
    ("analytics.numeric_argmin", "analytics", "numeric_argmin", None),
    ("cli.load_config", "cli", "load_config", None),
    ("cli.command", "cli", "cmd_simulate", None),
    ("cli.command", "cli", "cmd_optimize", None),
    ("cli.command", "cli", "cmd_verify_matching", None),
    ("cli.command", "cli", "cmd_sweep", None),
    ("cli.report_write", "cli", "_write_json", None),
    ("cli.report_write", "cli", "_write_csv", None),
)

# every policy class in ``strategies`` that defines one of these is wrapped
POLICY_SPAN = "strategies.policy"
POLICY_METHODS = ("transmit", "encode", "decode")


def _wrap(fn, name: str, recorder: Recorder, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = recorder.close(idx)
        if measure is not None:
            span.attrs = measure(args, kwargs, result)
        return result

    return wrapper


class Patch:
    """Context manager that wraps every target present in ``remest``;
    ``absent`` lists the targets not found."""

    def __init__(self, recorder: Recorder, package: str = "remest") -> None:
        self.recorder = recorder
        self.package = package
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def _modules(self) -> list:
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(self.package + "."))]

    def _replace_everywhere(self, orig, wrapper) -> None:
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, key, orig, True))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((value, k, orig, False))
                            value[k] = wrapper

    def _patch_class_attr(self, cls, attr: str, name: str, measure) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(raw.__func__, name, self.recorder, measure))
        else:
            new = _wrap(raw, name, self.recorder, measure)
        self._undo.append((cls, attr, raw, True))
        setattr(cls, attr, new)

    def _patch_target(self, name: str, module_name: str, path: str, measure) -> None:
        label = f"{module_name}.{path}"
        module = sys.modules.get(f"{self.package}.{module_name}")
        parts = path.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if owner is None:
            self.absent.append(label)
        elif inspect.isclass(owner):
            if attr in owner.__dict__:
                self._patch_class_attr(owner, attr, name, measure)
            else:
                self.absent.append(label)
        elif callable(getattr(owner, attr, None)):
            orig = getattr(owner, attr)
            self._replace_everywhere(orig, _wrap(orig, name, self.recorder, measure))
        else:
            self.absent.append(label)

    def _patch_policies(self) -> None:
        module = sys.modules.get(f"{self.package}.strategies")
        found = False
        for cls in vars(module).values() if module is not None else ():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr in POLICY_METHODS:
                fn = cls.__dict__.get(attr)
                if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                    self._patch_class_attr(cls, attr, POLICY_SPAN, None)
                    found = True
        if not found:
            self.absent.append(POLICY_SPAN)

    def __enter__(self) -> "Patch":
        try:
            for target in TARGETS:
                self._patch_target(*target)
            self._patch_policies()
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._undo:
            owner, key, orig, is_attr = self._undo.pop()
            if is_attr:
                setattr(owner, key, orig)
            else:
                owner[key] = orig

    def __exit__(self, *exc) -> None:
        self._restore()


@dataclass
class LayerTotals:
    """Per-name sums over one set of spans."""

    calls: dict = field(default_factory=dict)
    total_s: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @classmethod
    def from_spans(cls, spans: list[Span]) -> "LayerTotals":
        out = cls()
        child_s = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.duration
        for i, span in enumerate(spans):
            out.calls[span.name] = out.calls.get(span.name, 0) + 1
            out.total_s[span.name] = out.total_s.get(span.name, 0.0) + span.duration
            out.self_s[span.name] = out.self_s.get(span.name, 0.0) + span.duration - child_s[i]
            for key, value in (span.attrs or {}).items():
                slot = f"{span.name}.{key}"
                out.attrs[slot] = out.attrs.get(slot, 0) + value
        return out


def _mean(values: list):
    total = sum(values)
    if all(isinstance(v, int) for v in values) and total % len(values) == 0:
        return total // len(values)
    return total / len(values)


def layer_metrics(jobs: list[LayerTotals]) -> list[tuple[str, object, str]]:
    """Per-layer metrics as (name, value, unit), each value the mean over
    traced jobs of a per-job value.

    Times carry unit "s"; each is a self time (a leaf span's total is its self
    time), so within one job they sum to no more than the job's root span.
    The ``.share`` names are for reporting them as a share of the job.
    """
    def per_job(fn):
        return _mean([fn(t) for t in jobs])

    def calls(name):
        return per_job(lambda t: t.calls.get(name, 0))

    def total(name):
        return per_job(lambda t: t.total_s.get(name, 0.0))

    def self_time(name):
        return per_job(lambda t: t.self_s.get(name, 0.0))

    def attr(key):
        return per_job(lambda t: t.attrs.get(key, 0))

    stages = attr("simulator.run_episode.stages")
    tx = attr("simulator.run_episode.tx")
    return [
        ("distributions.substream.calls", calls("distributions.substream"), "count"),
        ("distributions.substream.share", total("distributions.substream"), "s"),
        ("distributions.sample_laplace.draws", attr("distributions.sample_laplace.draws"), "count"),
        ("distributions.sample_laplace.share", total("distributions.sample_laplace"), "s"),
        ("distributions.sample_gamma.draws", attr("distributions.sample_gamma.draws"), "count"),
        ("distributions.sample_gamma.share", total("distributions.sample_gamma"), "s"),
        ("distributions.sample_exponential.draws",
         attr("distributions.sample_exponential.draws"), "count"),
        ("distributions.sample_exponential.share", total("distributions.sample_exponential"), "s"),
        ("distributions.empirical_char_fn.evals",
         attr("distributions.empirical_char_fn.evals"), "count"),
        ("distributions.empirical_char_fn.share", total("distributions.empirical_char_fn"), "s"),
        ("strategies.policy.calls", calls(POLICY_SPAN), "count"),
        ("strategies.policy.share", total(POLICY_SPAN), "s"),
        ("simulator.run_episode.calls", calls("simulator.run_episode"), "count"),
        ("simulator.run_episode.stages", stages, "count"),
        ("simulator.run_episode.self_share", self_time("simulator.run_episode"), "s"),
        ("simulator.tx_ratio", tx / stages if stages else 0.0, "ratio"),
        ("simulator.estimate_cost.self_share", self_time("simulator.estimate_cost"), "s"),
        ("simulator.reduce.share", total("simulator.from_samples")
         + self_time("simulator.estimate_conditional_stats"), "s"),
        ("matching.check_matching.share", total("matching.check_matching"), "s"),
        ("matching.check_matching_empirical.self_share",
         self_time("matching.check_matching_empirical"), "s"),
        ("analytics.numeric_argmin.calls", calls("analytics.numeric_argmin"), "count"),
        ("analytics.numeric_argmin.share", total("analytics.numeric_argmin"), "s"),
        ("cli.load_config.share", total("cli.load_config"), "s"),
        ("cli.command.self_share", self_time("cli.command"), "s"),
        ("cli.report_write.share", total("cli.report_write"), "s"),
    ]
