"""``service``: the HTTP analysis service, one client process.

The client drives a ``repro serve`` child with a fresh SQLite store.  The
run draws :data:`INPUTS` inputs and replays each on two freshly started
servers, one after the other: a segment.  A job's latency is the lower
of its two replays, and so is a burst's time: a stall of the shared CPU
that hits one replay and neither of its reference slices is dropped
instead of landing in the p95.  With
fresh stores, both replays do the same work: the same store reads and
writes.  Each segment has three phases:

1. start-up — spawn the server, wait for ``/v1/health``, finish the
   first job of each test (``setup_s``), so first-use costs such as lazy
   imports count as set-up;
2. latency — a closed loop with one job outstanding: submit, poll the
   status until done, next.  Latency runs from the send to the
   server-stamped ``finished_at``; about :data:`RESUBMIT_P` of the jobs
   repeat an earlier set and test, so store reads and writes mix;
3. saturation — :data:`SAT_CLIENTS` closed-loop clients keep that many
   jobs outstanding, in bursts of :data:`SAT_BURST` jobs (``ops_per_s``).

The client and the server child share one CPU: the benchmark pins
itself before it starts the server, and the child inherits the mask.
Reference slices run while the server is idle — between two latency
jobs and between two saturation bursts — and calibrate the job or burst
they bracket.  Server and client on two CPUs was tried and dropped: the
two CPUs slow down independently and cross-CPU wake-ups are not
bracketed by a slice, so p95 moved by up to 47 % between seeds.

An open loop (Poisson arrivals at about half of capacity, latency from
each job's due time) was tried first and dropped: on a 2-CPU host its
p95 moved by 40-80 % between runs of one seed, because a stall on the
server CPU is amplified by the queue behind it and no slice brackets it.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from statistics import mean, median
from typing import Any, Dict, List, Optional, Tuple

from .calib import Calibrator
from .common import (
    MIN_OPS,
    STATE_DIR,
    Outcome,
    make_taskset,
    python_env,
    task_rows,
    unit_digest,
    vm_hwm_mb,
)

#: Distinct inputs per run; each is replayed on two servers.
INPUTS = 4
RESUBMIT_P = 0.30
TESTS = ("qpa", "processor-demand", "devi", "all-approx")
SAT_CLIENTS = 2
SAT_BURST = 20
#: Status-poll interval of the latency phase.  Client and server share
#: a CPU, so a poll that lands while the job runs slows it; the first
#: poll comes one interval after the submit, when most jobs are done, so
#: the measured window (send to ``finished_at``) holds no poll.
LATENCY_POLL_S = 0.02
#: Status-poll interval of start-up and the saturation phase: short, so
#: that start-up ends soon after its first jobs and the two saturation
#: clients keep the server busy.
BUSY_POLL_S = 0.002
JOB_TIMEOUT_S = 20.0
#: Latency jobs and saturation bursts per run second (fixed work: the
#: same seed and ``--seconds`` always submit the same jobs).
JOBS_PER_S = 10
BURSTS_PER_S = 0.8


class Job:
    """One planned submission and what became of it."""

    __slots__ = ("rows", "test", "sent", "snapshot", "result", "error")

    def __init__(self, rows: list, test: str) -> None:
        self.rows = rows
        self.test = test
        self.sent = 0.0
        self.snapshot: Optional[Dict[str, Any]] = None
        self.result: Optional[Tuple[str, int]] = None
        self.error: Optional[str] = None

    def copy(self) -> "Job":
        return Job(self.rows, self.test)


def random_sets(rng: random.Random, count: int) -> List[list]:
    """*count* sets, n 10-60 and U 0.80-0.98, each stratified over its range.

    Stratified so that every seed offers the server the same mix: the
    latency percentiles then move with the program, not with the draw.
    """
    sizes = [10 + int(51 * (k + rng.random()) / count) for k in range(count)]
    utils = [0.80 + 0.18 * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(sizes)
    rng.shuffle(utils)
    return [task_rows(rng, n, u, 100.0, (0.0, 0.4)) for n, u in zip(sizes, utils)]


def tagged(rng: random.Random, count: int) -> List[Job]:
    """*count* fresh jobs over :func:`random_sets`, each test equally often."""
    return [Job(rows, TESTS[k % len(TESTS)]) for k, rows in enumerate(random_sets(rng, count))]


def plan(rng: random.Random, count: int) -> List[Job]:
    """*count* jobs; RESUBMIT_P of them repeat an earlier set and test."""
    resubmits = round(RESUBMIT_P * count)
    fresh = tagged(rng, count - resubmits)
    rng.shuffle(fresh)
    repeat = [True] * resubmits + [False] * len(fresh)
    rng.shuffle(repeat)
    repeat[repeat.index(False)] = repeat[0]
    repeat[0] = False  # the first job has nothing to repeat
    jobs: List[Job] = []
    distinct: List[Job] = []
    for again in repeat:
        if again:
            jobs.append(distinct[rng.randrange(len(distinct))].copy())
        else:
            distinct.append(fresh[len(distinct)])
            jobs.append(distinct[-1])
    return jobs


class Server:
    """A ``repro serve`` child (or the traced launcher)."""

    def __init__(self, store: str, spans_out: Optional[str]) -> None:
        if spans_out is None:
            argv = ["-m", "repro", "serve", "--port", "0", "--store", store]
        else:
            argv = ["e2ebench/launcher.py", "--store", store, "--spans-out", spans_out]
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=STATE_DIR.parent,
            env=python_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_job(client, job: Job, poll: float) -> bool:
    """Submit *job*, poll every *poll* s until it is terminal, fetch its result.

    Returns whether the job finished; failures land in ``job.error``.
    """
    from repro.service.client import ServiceError

    try:
        job.sent = time.time()
        job_id = client.submit([make_taskset(job.rows)], job.test)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            time.sleep(poll)
            state = client.status(job_id)["state"]
            if state in ("done", "failed", "cancelled"):
                break
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {state}")
        if state != "done":
            job.error = f"job {job_id} ended {state}"
            return False
        document = client.raw_results(job_id)
    except (ServiceError, TimeoutError, OSError) as err:
        job.error = f"{type(err).__name__}: {err}"
        return False
    job.snapshot = document
    entry = document["results"][0]
    job.result = (entry["verdict"], entry["iterations"])
    return True


def run_segment(
    calibrator: Calibrator,
    first: List[Job],
    jobs: List[Job],
    bursts: List[List[Job]],
    spans_out: Optional[str],
    client_tracer=None,
) -> Dict[str, Any]:
    """Start a server, run the latency and saturation phases, stop it."""
    from repro.service.client import ServiceClient

    store_dir = STATE_DIR / "stores"
    store_dir.mkdir(parents=True, exist_ok=True)
    store = store_dir / f"store-{os.getpid()}.sqlite"
    for leftover in store_dir.glob(store.name + "*"):
        leftover.unlink()
    info: Dict[str, Any] = {"latency": [], "bursts": []}

    before = calibrator.slice()
    start = time.perf_counter()
    server = Server(str(store), spans_out)
    try:
        client = ServiceClient(server.url, timeout=JOB_TIMEOUT_S)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            try:
                client.health()
                break
            except Exception:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        for job in first:
            run_job(client, job, BUSY_POLL_S)
        setup_raw = time.perf_counter() - start
        after = calibrator.slice()
        info["setup_raw"] = setup_raw
        info["setup"] = setup_raw * calibrator.factor(before, after)

        if client_tracer is not None:
            client_tracer.armed = True
        for job in jobs:
            before = after
            run_job(client, job, LATENCY_POLL_S)
            after = calibrator.slice()
            info["latency"].append((job, calibrator.factor(before, after)))
        for burst in bursts:
            before = after
            elapsed = _burst(client.base_url, burst)
            after = calibrator.slice()
            info["bursts"].append((burst, elapsed, calibrator.factor(before, after)))
        if client_tracer is not None:
            client_tracer.armed = False
        info["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if client_tracer is not None:
            client_tracer.armed = False
        server.stop()
        for leftover in store_dir.glob(store.name + "*"):
            leftover.unlink()
    return info


def _burst(url: str, burst: List[Job]) -> float:
    """SAT_CLIENTS closed loops share *burst*; returns the wall seconds."""
    from repro.service.client import ServiceClient

    cursor = iter(burst)
    lock = threading.Lock()

    def loop() -> None:
        client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        while True:
            with lock:
                job = next(cursor, None)
            if job is None:
                return
            run_job(client, job, BUSY_POLL_S)

    threads = [threading.Thread(target=loop) for _ in range(SAT_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT_S * len(burst))
        if thread.is_alive():
            raise RuntimeError("saturation client did not finish")
    return time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    import repro

    outcome = Outcome("service")
    calibrator = Calibrator(guard=False)
    client_tracer = None
    if trace:
        from .layers import Tracer, install_client

        client_tracer = Tracer()
        install_client(client_tracer)

    # Traced runs replay each input on an untraced and a traced server.
    per_input = max(-(-MIN_OPS // INPUTS), round(JOBS_PER_S * seconds / INPUTS))
    bursts = max(1, round(BURSTS_PER_S * seconds / INPUTS))
    reference: Dict[Tuple[str, Tuple], Tuple[str, int]] = {}
    sat_jobs = sat_raw = sat_cal = 0.0
    rss: List[float] = []
    traced_docs: List[Dict[str, Any]] = []
    latency_by_mode: Dict[bool, List[float]] = {False: [], True: []}
    measured: List[Job] = []
    digests: Dict[str, str] = {}
    for index in range(INPUTS):
        rng = random.Random(f"{seed}/segment{index}")
        first_in = tagged(rng, len(TESTS))
        jobs_in = plan(rng, per_input)
        sat_in = [tagged(rng, SAT_BURST) for _ in range(bursts)]
        replays = []
        for traced in (False, trace):
            first = [j.copy() for j in first_in]
            jobs = [j.copy() for j in jobs_in]
            sat = [[j.copy() for j in burst] for burst in sat_in]
            spans_out = str(STATE_DIR / f"server-spans-{os.getpid()}.json") if traced else None
            info = run_segment(
                calibrator, first, jobs, sat, spans_out, client_tracer if traced else None
            )
            outcome.setup.append(info["setup"])
            outcome.raw_setup.append(info["setup_raw"])
            rss.append(info["peak_rss_mb"])
            for job in first:
                outcome.attempted += 1
                _check(outcome, job, reference, repro)
            latencies = []
            for job, factor in info["latency"]:
                outcome.attempted += 1
                if not _check(outcome, job, reference, repro):
                    latencies.append(None)
                    continue
                latency = job.snapshot["finished_at"] - job.sent
                latencies.append((latency * factor, latency))
                latency_by_mode[traced].append(latency * factor)
                measured.append(job)
            bursts_done = []
            for burst, elapsed, factor in info["bursts"]:
                done = 0
                for job in burst:
                    outcome.attempted += 1
                    done += _check(outcome, job, reference, repro)
                bursts_done.append((done, elapsed * factor, elapsed))
            key = f"segment{index}/{per_input}x{bursts}"
            digest = unit_digest([job.result for job in jobs])
            if digests.setdefault(key, digest) != digest:
                outcome.failed += 1
                outcome.fail(f"{key}: the two servers answered differently")
            if traced:
                import json

                with open(spans_out) as fh:
                    document = json.load(fh)
                os.unlink(spans_out)
                document["jobs"] = first + jobs + [j for burst in sat for j in burst]
                traced_docs.append(document)
            replays.append((latencies, bursts_done))
        (lat_a, bursts_a), (lat_b, bursts_b) = replays
        for a, b in zip(lat_a, lat_b):
            if a is not None and b is not None:
                outcome.latencies.append(min(a[0], b[0]))
                outcome.raw_latencies.append(min(a[1], b[1]))
        for a, b in zip(bursts_a, bursts_b):
            sat_jobs += min(a[0], b[0])
            sat_cal += min(a[1], b[1])
            sat_raw += min(a[2], b[2])

    outcome.digests = digests
    outcome.ops_per_s = sat_jobs / sat_cal if sat_cal else 0.0
    outcome.raw_ops_per_s = sat_jobs / sat_raw if sat_raw else 0.0
    outcome.throughput_samples = int(sat_jobs)
    outcome.peak_rss_mb = median(rss)
    outcome.slowdown = calibrator.slowdown()
    outcome.notes["segments"] = (
        f"{INPUTS} inputs x 2 servers x ({per_input} one-at-a-time jobs, then "
        f"{bursts} bursts of {SAT_BURST} jobs from {SAT_CLIENTS} clients)"
    )
    snaps = [(j, j.snapshot) for j in measured]
    for label, values in (
        ("send to queued", [s["created_at"] - j.sent for j, s in snaps]),
        ("queue wait", [s["started_at"] - s["created_at"] for _, s in snaps]),
        ("server exec", [s["finished_at"] - s["started_at"] for _, s in snaps]),
    ):
        values.sort()
        outcome.notes[f"{label} (raw)"] = (
            f"p50 {values[len(values) // 2] * 1e3:.3f} ms, "
            f"p95 {values[int(len(values) * 0.95)] * 1e3:.3f} ms"
        )
    if trace:
        _fold(outcome, traced_docs, client_tracer, latency_by_mode)
    return outcome


def _check(outcome, job: Job, reference, repro) -> bool:
    """The server's answer equals an in-process run of the same test."""
    if job.error is not None or job.result is None:
        outcome.failed += 1
        outcome.fail(job.error or "no result")
        return False
    key = (job.test, tuple(job.rows))
    expected = reference.get(key)
    if expected is None:
        result = repro.analyze(make_taskset(job.rows), job.test)
        expected = reference[key] = (result.verdict.value, result.iterations)
    if job.result != expected:
        outcome.failed += 1
        outcome.fail(f"{job.test}: server said {job.result}, in-process {expected}")
        return False
    return True


def _fold(outcome, docs, client_tracer, latency_by_mode) -> None:
    from .layers import fold, layer_metrics, ratio, share_table

    spans: List[Any] = []
    counts: Dict[str, float] = {}
    jobs: List[Job] = []
    for document in docs:
        offset = len(spans)
        spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1)
            for name, start, end, parent in document["spans"]
        )
        for key, value in document["counts"].items():
            counts[key] = counts.get(key, 0) + value
        jobs.extend(document["jobs"])
    ops = len(jobs)
    snaps = [j.snapshot for j in jobs if j.snapshot]
    for job in jobs:
        if job.snapshot and not job.snapshot["from_store"]:
            key = f"iterations.{job.test}"
            counts[key] = counts.get(key, 0) + job.result[1]
    folded = fold(spans)
    client = client_tracer.self_times()
    factor = 1.0 / outcome.slowdown
    from_store = sum(s["from_store"] for s in snaps)
    total = sum(s["total"] for s in snaps)
    submit_s, submits = client.get("service.http.submit", (0.0, 0))
    retries = client_tracer.counts.get("client.attempts", 0) - client_tracer.counts.get(
        "client.requests", 0
    )
    untraced, traced = mean(latency_by_mode[False]), mean(latency_by_mode[True])
    overhead = traced / untraced - 1.0 if untraced else 0.0
    extra = {
        "service.http.submit_ms": (ratio(submit_s, submits) * factor * 1e3, "ms"),
        "service.jobs.queue_wait_ms": (
            mean(s["queue_latency_seconds"] or 0.0 for s in snaps) * factor * 1e3, "ms"
        ),
        "service.jobs.exec_ms": (
            mean(s["finished_at"] - s["started_at"] for s in snaps) * factor * 1e3, "ms"
        ),
        "service.store.hit_ratio": (ratio(from_store, total), "ratio"),
        "service.client.retries": (retries / max(ops, 1), "count/op"),
        "trace.overhead_pct": (overhead * 100.0, "%"),
    }
    outcome.layers = layer_metrics(folded, counts, ops, factor, extra=extra)
    busy = sum(s["finished_at"] - s["started_at"] for s in snaps)
    outcome.table = share_table(folded, busy, factor, ops)
    outcome.notes["tracing overhead"] = (
        f"{overhead * 100:+.1f}% (mean latency, traced vs untraced server "
        f"on the same jobs)"
    )
    outcome.notes["share base"] = "server busy time (started_at..finished_at)"
