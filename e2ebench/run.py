"""End-to-end benchmark of the repro EDF feasibility library.

Run from the checkout root::

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: ``sweep`` (the paper's exact tests on hard sets),
``admission`` (online admission decisions) and ``service`` (the HTTP
analysis service under closed-loop load).  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separately traced
run.  Every timing is host-calibrated (see ``calib.py``).  The exit
code is 0 when the run completed, whether or not outputs checked out
(``correct`` says that); 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("sweep", "admission", "service")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_core() -> int:
    """Pin this process to the last allowed CPU; return it."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "e2ebench: no program source at ./src/repro; run from the checkout root",
            file=sys.stderr,
        )
        return 2
    # Before numpy can be imported: no idle BLAS pool threads, which the
    # thread guard would (rightly) count as foreign.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root))

    import importlib

    from e2ebench.common import check_record, report

    workload = importlib.import_module(f"e2ebench.{args.workload}")
    cpu = pin_to_one_core()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    outcome.notes["pinned cpu"] = cpu
    mismatched = check_record(args.workload, args.seed, outcome.digests)
    if mismatched:
        outcome.failed += len(mismatched)
        outcome.fail(
            f"outputs differ from an earlier run of this source and seed: "
            f"{', '.join(mismatched[:5])}"
        )
    result = report(outcome, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
