"""Reference passes: fixed numpy work, independent of ``remest``, timed
between the operations the benchmark measures.

The shared hosts this benchmark runs on change speed by up to 2x over
seconds to minutes, and raw wall times move with them.  Every time the
benchmark reports is therefore scaled to reference seconds: the mean
operation time times REF_S over the mean reference pass in the same window.
Host drift slows both and cancels; a change to ``remest`` moves only the
operations.  Each workload uses the kind of pass closest to its own work,
because the host slows streaming over large arrays more than it slows
small-array calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.1  # nominal length of one reference pass


def _episodes() -> None:
    """Many short episodes: a fresh generator and small-array calls each."""
    for i in range(3000):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, 0, i])))
        x = gen.random(100)
        y = np.where(x < 0.5, np.log(2.0 * x), -np.log(2.0 * (1.0 - x)))
        on = np.abs(y) > 1.0
        float((y[on] ** 2).sum())


def _stream() -> None:
    """Inverse-CDF sampling over a large array, then one complex exp."""
    x = np.random.default_rng(0).random(2_000_000)
    y = np.where(x < 0.5, np.log(2.0 * x), -np.log(2.0 * (1.0 - x)))
    complex(np.exp(1j * y[:1_000_000]).mean())


def _rotate() -> None:
    """Phase rotation and averaging of a large complex array."""
    x = np.random.default_rng(0).random(1_000_000)
    cur = np.exp(1j * x)
    rot = np.exp(0.1j * x)
    for _ in range(12):
        complex(cur.mean())
        cur *= rot


KINDS = {"episodes": _episodes, "stream": _stream, "rotate": _rotate}


def timed(kind: str) -> float:
    """Wall time of one reference pass of ``kind``."""
    t0 = time.perf_counter()
    KINDS[kind]()
    return time.perf_counter() - t0


def scaled(times: list[float], refs: list[float]) -> float:
    """Mean of ``times`` in reference seconds."""
    return REF_S * statistics.fmean(times) / statistics.fmean(refs)
