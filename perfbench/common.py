"""Statistics and reporting shared by the workloads."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = BENCH_DIR / "references.json"

# A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


# -- speed calibration ---------------------------------------------------------
#
# The machine's speed drifts by up to 2x over seconds and minutes, and the
# analyzer's times follow it.  A fixed pure-Python kernel (dicts, tuples,
# frozensets, sorting, fractions: the kind of work the analyzer does, but
# none of its code) is timed right before and right after every measured
# operation, and the operation's time is rescaled to the speed at which
# the kernel takes ``CAL_REF_S``.  A change to the program moves the
# operation and not the kernel, so it shows in full.

CAL_REF_S = 0.002  # the kernel's time at the reference speed
CAL_REPS = 3  # the fastest of this many kernel runs is one reading


def _cal_kernel() -> int:
    table: Dict[tuple, int] = {}
    sets = []
    acc = Fraction(0)
    for i in range(1000):
        key = (i % 37, i % 11, "k%d" % (i % 7))
        table[key] = table.get(key, 0) + i
        sets.append(frozenset((i % 5, i % 3, i % 13)))
        if i % 8 == 0:
            acc += Fraction(i + 1, (i % 9) + 2)
    return len(sorted(table.items())) + len(set(sets)) + acc.numerator % 7


def cal_reading() -> float:
    """Seconds the kernel takes now (fastest of ``CAL_REPS`` runs).  The
    collector is off meanwhile, so the reading does not depend on how
    much garbage the measured operation left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CAL_REPS):
            t0 = time.perf_counter()
            _cal_kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def start_reading() -> float:
    """Seconds a fresh interpreter now takes to import the numeric stack
    the program depends on (``numpy`` and ``scipy.optimize``)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize"],
                   cwd=str(ROOT), env=child_env(), check=True, timeout=120)
    return time.perf_counter() - t0


# Starting a process (loading the interpreter, shared libraries and
# modules) does not follow the kernel: fresh-process set-up times are
# rescaled instead to the speed at which ``start_reading`` takes
# ``START_REF_S``.
START_REF_S = 0.8


class SpeedGauge:
    """Rescales raw durations to the reference speed.

    Call :meth:`mark` right before a measured operation and
    :meth:`scale` right after it: the operation's raw seconds are
    multiplied by the reference time over the median of the readings
    around it (kernel readings by default; ``SpeedGauge(start_reading,
    START_REF_S)`` for process starts).  Back-to-back operations share a
    reading: :meth:`arm` starts the next one from the last reading.

    With ``every_s``, a timer signal also takes a reading every
    ``every_s`` seconds *during* an operation, so a row that runs for
    seconds is rescaled by the speed it ran at, not only the speed at
    its ends.  The readings take time (``paused_s`` since the operation
    started): an operation running in this thread is stopped meanwhile
    and its caller subtracts them; a request waited for in this thread
    runs on elsewhere.  ``factors`` keeps every factor applied, for the
    speed row printed beside the metrics."""

    def __init__(self, reading=cal_reading, ref_s: float = CAL_REF_S,
                 every_s: float = 0.0) -> None:
        self.reading, self.ref_s, self.every_s = reading, ref_s, every_s
        self.factors: List[float] = []
        self.paused_s = 0.0
        if every_s:
            signal.signal(signal.SIGALRM, self._on_timer)
        self._readings = [reading()]

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._readings.append(self.reading())
        self.paused_s += time.perf_counter() - t0

    def mark(self) -> None:
        """Take a reading and start an operation."""
        self._readings.append(self.reading())
        self.arm()

    def arm(self) -> None:
        """Start an operation from the last reading."""
        self._readings = self._readings[-1:]
        self.paused_s = 0.0
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def scale(self, raw_s: float) -> float:
        """End an operation; ``raw_s`` at the speed it ran at."""
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._readings.append(self.reading())
        factor = self.ref_s / median(self._readings)
        self.factors.append(factor)
        return raw_s * factor


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile by the Harrell-Davis estimator: a mean of
    all order statistics, weighted by the beta distribution the ``q``-th
    quantile's rank follows.  Where the samples fall in separate groups
    (the cold queries of a few heavy roots, each ±15% from run to run), a
    single order statistic jumps between groups as the noise reorders
    them; the weighted mean moves with them smoothly."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q / 100.0, (n + 1) * (1.0 - q / 100.0)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb_self() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the
    path.  ``PYTHONHASHSEED`` is deliberately left as inherited (unset
    means random), so hash-order dependence shows up across processes."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_probe(args: List[str], timeout: float = 170.0) -> dict:
    """Run ``perfbench/probe.py`` in a fresh interpreter; returns its JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_references(path=None) -> dict:
    with open(path or REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def show(label: str, value, unit: str = "", note: str = "") -> None:
    """One human-readable result row."""
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"  {label:<34} {value} {unit}{('  ' + note) if note else ''}")


def finish(correct: bool, attempted: int, failed: int,
           metrics: Dict[str, dict], problems: Optional[List[str]] = None) -> int:
    """Print the result line (always last) and return the exit code."""
    for problem in problems or []:
        print(f"MISMATCH: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
