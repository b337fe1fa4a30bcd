"""``sweep``: the paper's Section 5 regime, one in-process closed loop.

One op runs a fresh task set through the four exact tests — the paper's
``all-approx`` and ``dynamic``, and the ``qpa`` and ``processor-demand``
baselines — sharing one analysis context, created after an untimed
``clear_context_cache()``.  The corpus is a full factorial over set size,
utilization, deadline gap and period ratio, so every seed sees the same
mix; each cycle draws one fresh set per cell.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Dict, List, Tuple

from .calib import Calibrator
from .common import (
    MIN_OPS,
    STATE_DIR,
    Outcome,
    SetupProber,
    make_taskset,
    task_rows,
    timed_child,
    unit_digest,
    vm_hwm_mb,
)

TESTS = ("all-approx", "dynamic", "qpa", "processor-demand")
SIZES = (20, 65, 110, 155, 200)
UTILIZATIONS = (0.90, 0.93, 0.95, 0.97, 0.98, 0.99)
GAPS = ((0.0, 0.2), (0.2, 0.4))
PERIOD_RATIOS = (100, 1000)
#: Corpus cycles per run second (fixed work: the same seed and
#: ``--seconds`` always analyse the same sets).
CYCLES_PER_S = 1 / 5


def cells() -> List[Tuple[int, float, Tuple[float, float], int]]:
    """Every factorial cell: (size, utilization, gap range, period ratio)."""
    return [
        (n, u, gap, ratio)
        for n in SIZES
        for u in UTILIZATIONS
        for gap in GAPS
        for ratio in PERIOD_RATIOS
    ]


def cycle(seed: int, index: int) -> List[Tuple[str, list]]:
    """Cycle *index*: one fresh set per cell, ``(label, rows)``, seeded order."""
    rng = random.Random(f"{seed}/cycle{index}")
    out = []
    for n, u, gap, ratio in cells():
        label = f"c{index}-n{n}-u{u}-g{gap[1]}-r{ratio}"
        out.append((label, task_rows(rng, n, u, ratio, gap)))
    rng.shuffle(out)
    return out


def _run_op(analyze, clear, rows, tracer=None, probe=None) -> Tuple[float, list]:
    """One op: the four tests on a fresh set; returns (wall s, results)."""
    taskset = make_taskset(rows)
    clear()
    gc.collect()
    if probe is not None:
        probe.begin()
        tracer.armed = True
    try:
        start = time.perf_counter()
        results = [analyze(taskset, test) for test in TESTS]
        wall = time.perf_counter() - start
    finally:
        if probe is not None:
            tracer.armed = False
            probe.end()
    return wall, results


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import repro
    from repro.engine import clear_context_cache

    tracer = probe = None
    if trace:
        from .layers import Probe, Tracer, install

        tracer = Tracer()
        install(tracer)
        probe = Probe()
    outcome = Outcome("sweep")
    calibrator = Calibrator(guard=True)

    # Set-up probe input: the smallest set of the corpus, as a CLI file.
    STATE_DIR.mkdir(exist_ok=True)
    probe_label, probe_rows = min(cycle(seed, 0), key=lambda c: (len(c[1]), c[0]))
    probe_file = STATE_DIR / f"sweep-setup-{seed}.json"
    from repro.model.serialization import taskset_to_dict

    probe_file.write_text(json.dumps(taskset_to_dict(make_taskset(probe_rows))))
    expected_exit = 0 if repro.analyze(make_taskset(probe_rows), "qpa").is_feasible else 1
    per_cycle = len(cells())
    cycles = max(-(-MIN_OPS // per_cycle), round(seconds * CYCLES_PER_S))
    # Traced runs replay each cycle, untraced then traced, over the same
    # sets; the difference is the tracing overhead.
    schedule = (
        [(c, armed) for c in range(-(-cycles // 2)) for armed in (False, True)]
        if trace
        else [(c, False) for c in range(cycles)]
    )
    prober = SetupProber(
        calibrator,
        lambda: timed_child(
            ["-m", "repro", "analyze", str(probe_file), "--test", "qpa"],
            expect=(expected_exit,),
        ),
        len(schedule) * per_cycle,
    )

    reference: Dict[str, list] = {}
    untraced_s = traced_s = traced_raw = 0.0
    total_raw = total_cal = 0.0
    traced_ops = 0
    before = calibrator.slice()
    for index, armed in schedule:
        for label, rows in cycle(seed, index):
            if prober.maybe(outcome.attempted):
                before = calibrator.slice()
            outcome.attempted += 1
            try:
                wall, results = _run_op(
                    repro.analyze, clear_context_cache, rows,
                    tracer, probe if armed else None,
                )
            except Exception as err:  # a raising op is a failed op
                outcome.failed += 1
                outcome.fail(f"{label}: {type(err).__name__}: {err}")
                before = calibrator.slice()
                continue
            after = calibrator.slice()
            calibrated = wall * calibrator.factor(before, after)
            before = after
            summary = [(r.verdict.value, r.iterations) for r in results]
            if not _check(outcome, label, summary, reference):
                outcome.failed += 1
                continue
            if armed:
                traced_s += calibrated
                traced_raw += wall
                traced_ops += 1
                for test, result in zip(TESTS, results):
                    tracer.counts[f"iterations.{test}"] += result.iterations
            else:
                untraced_s += calibrated
            outcome.raw_latencies.append(wall)
            outcome.latencies.append(calibrated)
            total_raw += wall
            total_cal += calibrated
    prober.finish()

    outcome.setup = prober.calibrated
    outcome.raw_setup = prober.raw
    outcome.ops_per_s = len(outcome.latencies) / total_cal if total_cal else 0.0
    outcome.raw_ops_per_s = len(outcome.latencies) / total_raw if total_raw else 0.0
    outcome.peak_rss_mb = vm_hwm_mb()
    outcome.slowdown = calibrator.slowdown()
    outcome.digests = {label: unit_digest(s) for label, s in reference.items()}
    outcome.notes["cycles"] = f"{len(schedule)} of {per_cycle} fresh sets"
    if trace:
        _fold(outcome, tracer, probe, traced_ops, traced_s, untraced_s, traced_raw)
    return outcome


def _check(outcome: Outcome, label: str, summary: list, reference: Dict[str, list]) -> bool:
    """The four exact verdicts agree; iteration counts repeat per set."""
    verdicts = {verdict for verdict, _ in summary}
    if len(verdicts) != 1:
        outcome.fail(f"{label}: exact tests disagree: {summary}")
        return False
    earlier = reference.setdefault(label, summary)
    if earlier != summary:
        outcome.fail(f"{label}: results changed between passes: {earlier} vs {summary}")
        return False
    return True


def _fold(outcome, tracer, probe, ops, traced_s, untraced_s, traced_raw) -> None:
    from .layers import layer_metrics, share_table

    counts = dict(probe.totals)
    counts.update(tracer.counts)
    folded = tracer.self_times()
    factor = 1.0 / outcome.slowdown
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    tracer.write(STATE_DIR / "spans-sweep.json")
    outcome.layers = layer_metrics(
        folded, counts, ops, factor,
        extra={"trace.overhead_pct": (overhead * 100.0, "%")},
    )
    outcome.table = share_table(folded, traced_raw, factor, ops)
    outcome.notes["tracing overhead"] = (
        f"{overhead * 100:+.1f}% (traced {traced_s:.3f}s vs untraced "
        f"{untraced_s:.3f}s calibrated, same sets)"
    )
