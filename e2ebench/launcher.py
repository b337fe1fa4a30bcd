"""Traced stand-in for ``repro serve``, used by the ``service`` workload.

Run from the checkout root::

    python3 e2ebench/launcher.py --store S.sqlite --spans-out spans.json

Installs the benchmark's layer wrappers, then builds and runs the same
:class:`AnalysisServer` that ``repro serve --port 0 --store S.sqlite``
builds.  On SIGINT it shuts the server down and writes the folded spans,
the program-side counters and its peak RSS to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd()))

    from e2ebench.common import vm_hwm_mb
    from e2ebench.layers import Probe, Tracer, install

    tracer = Tracer()
    install(tracer)
    from repro.service import AnalysisServer

    server = AnalysisServer(host="127.0.0.1", port=0, store=args.store)
    probe = Probe()
    probe.begin()
    tracer.armed = True
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        tracer.armed = False
        probe.end()
        server.close()
        document = {
            "spans": tracer.spans,
            "counts": dict(probe.totals),
            "peak_rss_mb": vm_hwm_mb(),
        }
        Path(args.spans_out).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
