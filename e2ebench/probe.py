"""Fresh-process set-up probe of the ``admission`` workload.

Run as ``python e2ebench/probe.py admission <taskset.json>`` from the
checkout root: imports the program and builds an admission controller
around the initial resident set, then exits.
"""

import json
import sys


def main(argv):
    if argv[:1] != ["admission"] or len(argv) != 2:
        print("usage: probe.py admission <taskset.json>", file=sys.stderr)
        return 2
    from repro.model.serialization import taskset_from_dict
    from repro.online import AdmissionController

    with open(argv[1]) as fh:
        taskset = taskset_from_dict(json.load(fh))
    controller = AdmissionController(taskset)
    return 0 if len(controller) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
