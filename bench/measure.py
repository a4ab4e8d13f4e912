"""Percentiles, machine speed, memory and the run record."""
from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from statistics import fmean
from time import perf_counter

TAIL_Q = 0.9
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
TAIL_MIN_SAMPLES = round(TAIL_BEYOND / (1 - TAIL_Q))


def tail(values, q: float = TAIL_Q, beyond: int = TAIL_BEYOND) -> float:
    """Nearest-rank q-th percentile, refused unless at least `beyond`
    samples lie above its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < beyond:
        raise ValueError(f"p{round(q * 100)} of {n} samples leaves {n - rank} beyond it, need {beyond}")
    return sorted(values)[rank - 1]


# The machine this benchmark was built on switches between speeds up to 1.8x
# apart in bursts of 0.1 s to a few seconds, for pure-Python work in thread CPU
# time as much as in wall time. So the untraced workloads time a short, fixed
# pure-Python kernel before every operation, and each duration is rescaled by
# the kernel samples that bracket it to the speed at which one kernel run takes
# PROBE_REF_S.
PROBE_REF_S = 0.0015
PROBE_ITERS = 2_400


def _probe_kernel() -> int:
    """Dict, tuple and integer work like the program's own, with a small,
    fixed working set so the program's heap does not change its cost."""
    table: dict = {}
    acc = 0
    for i in range(PROBE_ITERS):
        key = (i & 255, i % 7, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += key[1] * key[2] + (hash(key) & 3)
    return acc


class SpeedProbe:
    """Kernel samples, each stored with its start time."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            _probe_kernel()
            self.samples.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.times.append(t)

    def factor(self, t0: float, t1: float) -> float:
        """Rescales a span [t0, t1]: reference kernel time over the mean of the
        samples from the last one started by t0 to the first one started after
        t1 (the last sample if none was). Call after the span's closing sample."""
        lo = max(0, bisect.bisect_right(self.times, t0) - 1)
        hi = min(len(self.times) - 1, bisect.bisect_left(self.times, t1))
        return PROBE_REF_S / fmean(self.samples[lo : hi + 1])

    def spent(self, t0: float, t1: float) -> float:
        """Kernel time of the samples started within [t0, t1)."""
        return sum(self.samples[bisect.bisect_left(self.times, t0) : bisect.bisect_left(self.times, t1)])


def peak_rss_mb(pool: bool) -> float:
    """Peak resident set of this process in MiB; with `pool`, plus the largest
    peak among its waited-for children. Those are the harness pool workers and
    the interpreters that time the import, which stay smaller than a worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on the machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }
