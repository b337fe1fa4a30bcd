"""``admission``: online admission control, one in-process closed loop.

One op is one ``AdmissionController.admit`` or ``remove`` decision.
Each episode builds a fresh controller around an initial resident set
(untimed), then replays a seeded churn of arrivals and departures that
hovers near the target utilization.  The churn reacts to the
controller's own decisions — a rejected task never departs — so every
event is a real decision; since decisions are deterministic, so is the
event stream.

Ops are sub-millisecond, so calibration brackets batches of
:data:`BATCH` ops rather than single ops.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Any, Dict, List, Tuple

from .calib import Calibrator
from .common import (
    STATE_DIR,
    Outcome,
    SetupProber,
    make_taskset,
    task_rows,
    timed_child,
    unit_digest,
    vm_hwm_mb,
)

TARGET_U = 0.97
INITIAL_TASKS = 20
INITIAL_U = 0.80
EVENTS_PER_EPISODE = 400
TASK_U = (0.02, 0.08)
GAP = (0.2, 0.6)
PERIODS = (1_000, 100_000)
DEPART_P = 0.35
#: No arrival is offered that would put U in (NEAR_ONE, 1]: there the
#: exact stage's search bound grows like 1/(1-U) and the program has no
#: work budget, so one decision can take 30 s or more (with 10-50 %
#: deadline gaps, seed 12, episode 81 walked 5.2 M QPA steps at
#: U = 0.99998).  Such an op would decide a
#: whole run's throughput; the traced run counts the redrawn candidates
#: as ``online.near_one_redraws``.
NEAR_ONE = 0.99
#: Episodes per run second (fixed work: the same seed and ``--seconds``
#: always replay the same events).
EPISODES_PER_S = 5
#: Ops per calibration batch.
BATCH = 100
#: Every CHECK_EVERY-th arrival is re-decided by a fresh ``qpa``.
CHECK_EVERY = 16


def initial_rows(rng: random.Random) -> List[Tuple[int, int, int]]:
    """A feasible initial resident set (redrawn until ``qpa`` accepts)."""
    import repro

    while True:
        rows = task_rows(rng, INITIAL_TASKS, INITIAL_U, PERIODS[1] / PERIODS[0], GAP)
        if repro.analyze(make_taskset(rows), "qpa").is_feasible:
            return rows


def random_task(rng: random.Random) -> Tuple[int, int, int]:
    period = rng.randint(*PERIODS)
    wcet = min(period, max(1, round(rng.uniform(*TASK_U) * period)))
    deadline = max(wcet, round(period * (1.0 - rng.uniform(*GAP))))
    return wcet, deadline, period


class Episode:
    """One controller's churn; yields the next event on demand."""

    def __init__(self, seed: int, index: int) -> None:
        self.rng = random.Random(seed * 1_000_003 + index)
        self.initial = initial_rows(self.rng)
        self.resident: List[str] = []
        self.serial = 0
        #: Candidates redrawn because they would land in the near-1 band.
        self.skipped = 0

    def next_event(self, utilization: float):
        """``("depart", name)`` or ``("arrive", name, rows)``."""
        rng = self.rng
        if self.resident and (utilization >= TARGET_U or rng.random() < DEPART_P):
            name = self.resident.pop(rng.randrange(len(self.resident)))
            return ("depart", name)
        self.serial += 1
        while True:
            row = random_task(rng)
            after = utilization + row[0] / row[2]
            if not NEAR_ONE < after <= 1.0:
                return ("arrive", f"t{self.serial}", row)
            self.skipped += 1


def run_episode(
    episode_seed: Tuple[int, int],
    outcome: Outcome,
    calibrator: Calibrator,
    prober=None,
    tracer=None,
    probe=None,
) -> Dict[str, Any]:
    """Replay one episode into a fresh controller.

    Untraced replays record their latencies into *outcome* and re-decide
    every :data:`CHECK_EVERY`-th arrival with a fresh ``qpa``; traced
    replays (*tracer* given) only count, since they repeat an untraced
    replay of the same episode.
    """
    import repro
    from repro import SporadicTask
    from repro.model import as_components
    from repro.online import AdmissionController

    episode = Episode(*episode_seed)
    controller = AdmissionController(make_taskset(episode.initial))
    gc.collect()
    decisions = []
    stages: Dict[str, int] = {}
    stats = {"stages": stages, "arrivals": 0, "exact_s": 0.0, "ops": 0,
             "cal_s": 0.0, "raw_s": 0.0}
    pending: List[Tuple[float, bool]] = []
    before = calibrator.slice()

    def flush() -> None:
        nonlocal before
        after = calibrator.slice()
        factor = calibrator.factor(before, after)
        before = after
        for wall, exact in pending:
            if tracer is None:
                outcome.raw_latencies.append(wall)
                outcome.latencies.append(wall * factor)
            stats["raw_s"] += wall
            stats["cal_s"] += wall * factor
            if exact:
                stats["exact_s"] += wall * factor
        stats["ops"] += len(pending)
        pending.clear()

    for _ in range(EVENTS_PER_EPISODE):
        if prober is not None and not pending and prober.maybe(outcome.attempted):
            before = calibrator.slice()
        event = episode.next_event(float(controller.utilization))
        if tracer is None:
            outcome.attempted += 1
        check = None
        if event[0] == "arrive":
            stats["arrivals"] += 1
            wcet, deadline, period = event[2]
            task = SporadicTask(wcet=wcet, deadline=deadline, period=period)
            if tracer is None and stats["arrivals"] % CHECK_EVERY == 0:
                check = controller.snapshot()
        if tracer is not None:
            probe.begin()
            tracer.armed = True
        try:
            start = time.perf_counter()
            if event[0] == "arrive":
                decision = controller.admit(task, name=event[1])
            else:
                decision = controller.remove(event[1])
            wall = time.perf_counter() - start
        except Exception as err:  # a raising decision is a failed op
            outcome.failed += 1
            outcome.fail(f"episode {episode_seed}: {type(err).__name__}: {err}")
            continue
        finally:
            if tracer is not None:
                tracer.armed = False
                probe.end()
        if event[0] == "arrive" and decision.admitted:
            episode.resident.append(event[1])
        stages[decision.stage] = stages.get(decision.stage, 0) + 1
        decisions.append(
            (decision.stage, decision.admitted, decision.verdict.value, decision.iterations)
        )
        if check is not None:
            fresh = repro.analyze(list(check) + as_components([task]), "qpa")
            if fresh.verdict is not decision.verdict:
                outcome.failed += 1
                outcome.fail(
                    f"episode {episode_seed} {event[1]}: controller says "
                    f"{decision.verdict.value} via {decision.stage}, "
                    f"fresh qpa says {fresh.verdict.value}"
                )
                continue
        pending.append((wall, decision.stage == "exact"))
        if len(pending) >= BATCH:
            flush()
    if pending:
        flush()
    stats["digest"] = unit_digest(decisions)
    stats["redraws"] = episode.skipped
    return stats


def setup_probe_file(seed: int) -> str:
    """The first episode's initial set, for the fresh-process probe."""
    from repro.model.serialization import taskset_to_dict

    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"admission-setup-{seed}.json"
    rows = Episode(seed, 0).initial
    path.write_text(json.dumps(taskset_to_dict(make_taskset(rows))))
    return str(path)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = probe = None
    if trace:
        from .layers import Probe, Tracer, install

        tracer = Tracer()
        install(tracer)
        probe = Probe()
    outcome = Outcome("admission")
    calibrator = Calibrator(guard=True)
    probe_file = setup_probe_file(seed)
    stage_totals: Dict[str, int] = {}
    arrivals = redraws = 0
    exact_s = 0.0
    cal_total = raw_total = 0.0
    untraced_s = traced_s = traced_raw = 0.0
    traced_ops = 0
    episodes = max(1, round(seconds * EPISODES_PER_S))
    if trace:
        # Each episode is replayed traced after its untraced replay: the
        # same decisions, so the difference is the tracing overhead.
        episodes = max(1, episodes // 2)
    prober = SetupProber(
        calibrator,
        lambda: timed_child(["e2ebench/probe.py", "admission", probe_file]),
        episodes * EVENTS_PER_EPISODE,
    )
    for index in range(episodes):
        episode_seed = (seed, index)
        stats = run_episode(episode_seed, outcome, calibrator, prober)
        cal_total += stats["cal_s"]
        raw_total += stats["raw_s"]
        outcome.digests[f"episode{index}"] = stats["digest"]
        if trace:
            untraced_s += stats["cal_s"]
            traced = run_episode(episode_seed, outcome, calibrator, None, tracer, probe)
            if traced["digest"] != stats["digest"]:
                outcome.fail(f"episode {episode_seed}: traced replay decided differently")
                outcome.failed += 1
            traced_s += traced["cal_s"]
            traced_raw += traced["raw_s"]
            traced_ops += traced["ops"]
            for stage, count in traced["stages"].items():
                stage_totals[stage] = stage_totals.get(stage, 0) + count
            arrivals += traced["arrivals"]
            exact_s += traced["exact_s"]
            redraws += traced["redraws"]
    prober.finish()
    outcome.setup = prober.calibrated
    outcome.raw_setup = prober.raw
    ops = len(outcome.latencies)
    outcome.ops_per_s = ops / cal_total if cal_total else 0.0
    outcome.raw_ops_per_s = ops / raw_total if raw_total else 0.0
    outcome.peak_rss_mb = vm_hwm_mb()
    outcome.slowdown = calibrator.slowdown()
    outcome.notes["episodes"] = f"{episodes} x {EVENTS_PER_EPISODE} events"
    if trace:
        _fold(outcome, tracer, probe, traced_ops, traced_s, untraced_s,
              traced_raw, stage_totals, arrivals, exact_s, redraws)
    return outcome


def _fold(outcome, tracer, probe, ops, traced_s, untraced_s, traced_raw,
          stages, arrivals, exact_s, redraws) -> None:
    from .layers import layer_metrics, share_table

    counts = probe.totals
    folded = tracer.self_times()
    factor = 1.0 / outcome.slowdown
    overhead = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    gate = stages.get("utilization-gate", 0)
    filtered = stages.get("approx-filter", 0)
    exact = stages.get("exact", 0)
    tried = filtered + exact
    extra = {
        "online.stage.gate": (gate / max(ops, 1), "count/op"),
        "online.stage.filter": (filtered / max(ops, 1), "count/op"),
        "online.stage.exact": (exact / max(ops, 1), "count/op"),
        "online.filter.useful_ratio": (filtered / tried if tried else 0.0, "ratio"),
        "online.exact_ms": (exact_s * 1e3 / exact if exact else 0.0, "ms"),
        "online.near_one_redraws": (redraws / max(ops, 1), "count/op"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    }
    tracer.write(STATE_DIR / "spans-admission.json")
    outcome.layers = layer_metrics(folded, counts, ops, factor, extra=extra)
    outcome.notes["stages"] = (
        f"{arrivals} arrivals: gate {gate}, filter {filtered}, exact {exact}"
    )
    outcome.table = share_table(folded, traced_raw, factor, ops)
    outcome.notes["tracing overhead"] = (
        f"{overhead * 100:+.1f}% (traced {traced_s:.3f}s vs untraced "
        f"{untraced_s:.3f}s calibrated, same episodes)"
    )
