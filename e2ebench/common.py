"""Shared pieces of the workloads: inputs, probes, records, reporting.

Inputs are generated here from the seed with the standard library only,
so a change to the program's own generators never changes what the
benchmark measures.  The program sees nothing but the finished task
sets.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .calib import Calibrator, min_samples, percentile

#: Checkout root: the benchmark runs from there and writes only below it.
ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch state of the benchmark (digests, temporary stores, spans).
STATE_DIR = ROOT / ".e2ebench"

#: The percentile reported as ``latency_p95_ms``.
TAIL_PCT = 95.0
#: Samples every workload collects at least, so p95 has 10 beyond it.
MIN_OPS = min_samples(TAIL_PCT)

#: Start-ups measured per run for ``setup_s``.
SETUP_PROBES = 5


def python_env() -> Dict[str, str]:
    """Environment of child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def uunifast(rng: random.Random, n: int, total: float) -> List[float]:
    """Bini's UUniFast: *n* utilizations summing to *total*."""
    shares: List[float] = []
    remaining = total
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        shares.append(remaining - next_remaining)
        remaining = next_remaining
    shares.append(remaining)
    return shares


def task_rows(
    rng: random.Random,
    n: int,
    utilization: float,
    period_ratio: float,
    gap: Tuple[float, float],
    period_min: int = 1_000,
) -> List[Tuple[int, int, int]]:
    """``(wcet, deadline, period)`` integer rows of one random set.

    Periods are log-uniform over ``[period_min, period_min * ratio]``;
    each task's deadline sits a uniform ``gap`` share below its period.
    """
    rows = []
    log_lo = math.log(period_min)
    log_hi = math.log(period_min * period_ratio)
    for u in uunifast(rng, n, utilization):
        period = int(round(math.exp(rng.uniform(log_lo, log_hi))))
        wcet = min(period, max(1, round(u * period)))
        deadline = max(wcet, round(period * (1.0 - rng.uniform(*gap))))
        rows.append((wcet, deadline, period))
    return rows


def make_taskset(rows: Sequence[Tuple[int, int, int]]):
    """A fresh program :class:`TaskSet` from integer rows."""
    from repro import SporadicTask, TaskSet

    return TaskSet(SporadicTask(wcet=c, deadline=d, period=t) for c, d, t in rows)


# ---------------------------------------------------------------------------
# Determinism record
# ---------------------------------------------------------------------------


def source_hash() -> str:
    """Digest of the program and benchmark sources in this checkout."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def unit_digest(payload: Any) -> str:
    """Short digest of one unit's deterministic outputs."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_record(workload: str, seed: int, digests: Dict[str, str]) -> List[str]:
    """Compare *digests* with earlier runs of the same source and seed.

    Returns the unit keys whose digest differs; stores the union.  Runs
    of different length overlap only on the units both completed.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / "digests.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{source_hash()}/{workload}/{seed}"
    earlier = record.setdefault(key, {})
    mismatched = sorted(
        unit for unit, value in digests.items()
        if unit in earlier and earlier[unit] != value
    )
    if not mismatched:
        earlier.update(digests)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True))
        tmp.replace(path)
    return mismatched


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


class SetupProber:
    """Fresh-process start-ups spread over a run, calibrated.

    *probe* runs one start-up and returns its raw wall seconds; the
    prober brackets it with reference slices and spaces
    :data:`SETUP_PROBES` of them evenly over the run's *total* ops, so
    the same ops sit next to a probe on a fast or a slow host.
    """

    def __init__(
        self,
        calibrator: Calibrator,
        probe: Callable[[], float],
        total: int,
    ) -> None:
        self.calibrator = calibrator
        self.probe = probe
        self.spacing = total / (SETUP_PROBES - 1)
        self.raw: List[float] = []
        self.calibrated: List[float] = []

    def run_one(self) -> None:
        before = self.calibrator.slice()
        raw = self.probe()
        after = self.calibrator.slice()
        self.raw.append(raw)
        self.calibrated.append(raw * self.calibrator.factor(before, after))

    def maybe(self, done: int) -> bool:
        """Run a probe if one is due after *done* ops; return whether it ran."""
        if len(self.raw) < SETUP_PROBES and done >= len(self.raw) * self.spacing:
            self.run_one()
            return True
        return False

    def finish(self) -> None:
        while len(self.raw) < SETUP_PROBES:
            self.run_one()


def timed_child(argv: Sequence[str], expect: Sequence[int] = (0,)) -> float:
    """Run a fresh Python child to completion; return its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=python_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode not in expect:
        raise RuntimeError(
            f"set-up probe {argv!r} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-500:]}"
        )
    return elapsed


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    target = "self" if pid is None else str(pid)
    with open(f"/proc/{target}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    #: Calibrated per-op latencies, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Raw per-op latencies, seconds (reported beside the calibrated).
    raw_latencies: List[float] = field(default_factory=list)
    ops_per_s: float = 0.0
    raw_ops_per_s: float = 0.0
    throughput_samples: int = 0
    setup: List[float] = field(default_factory=list)
    raw_setup: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    slowdown: float = 1.0
    notes: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only): name -> (value, unit).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer self-time / share table (traced runs only).
    table: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)


def end_to_end(outcome: Outcome) -> Dict[str, Tuple[float, str, int]]:
    """The five end-to-end metrics: name -> (value, unit, samples)."""
    lat = outcome.latencies
    return {
        "setup_s": (median(outcome.setup), "s", len(outcome.setup)),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms", len(lat)),
        "latency_p95_ms": (percentile(lat, TAIL_PCT) * 1e3, "ms", len(lat)),
        "ops_per_s": (
            outcome.ops_per_s, "1/s", outcome.throughput_samples or len(lat)
        ),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB", 1),
    }


def report(outcome: Outcome, trace: bool, out=sys.stdout) -> Dict[str, Any]:
    """Print the human table and return the contract's result object."""
    w = out.write
    w(f"workload {outcome.workload}: attempted {outcome.attempted}, "
      f"failed {outcome.failed}, correct {outcome.correct}\n")
    for problem in outcome.problems:
        w(f"  problem: {problem}\n")
    w(f"  host slowdown (median measured/nominal slice): "
      f"{outcome.slowdown:.3f}\n")
    for key, value in sorted(outcome.notes.items()):
        w(f"  {key}: {value}\n")
    metrics: Dict[str, Dict[str, Any]] = {}
    if outcome.latencies:
        e2e = end_to_end(outcome)
        raw = {
            "setup_s": median(outcome.raw_setup),
            "latency_p50_ms": percentile(outcome.raw_latencies, 50) * 1e3,
            "latency_p95_ms": percentile(outcome.raw_latencies, TAIL_PCT) * 1e3,
            "ops_per_s": outcome.raw_ops_per_s,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        w(f"  {'metric':<16}{'calibrated':>14}{'raw':>14}  unit   samples\n")
        for name, (value, unit, samples) in e2e.items():
            w(f"  {name:<16}{value:>14.4f}{raw[name]:>14.4f}  "
              f"{unit:<6} n={samples}\n")
        if not trace:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in e2e.items()
            }
    if trace:
        w(f"  {'per-layer metric':<34}{'value':>14}  unit\n")
        for name, (value, unit) in sorted(outcome.layers.items()):
            w(f"  {name:<34}{value:>14.4f}  {unit}\n")
        for line in outcome.table:
            w(line + "\n")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.layers.items()
        }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
