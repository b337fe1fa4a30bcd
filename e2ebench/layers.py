"""Per-layer attribution from benchmark-owned spans.

The program is measured from outside: :func:`install` wraps the public
call into each layer with a recorder that opens a span around it.  Spans
stay in memory (:attr:`Tracer.spans`) and are folded at the end of the
run into each span name's *self time* — its duration minus the part of
it covered by child spans.

Wrappers must go in before the program builds its default test
registry, which captures the test runner functions when it is first
built.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span name -> layer, for the share table.
LAYER_OF = {
    "model.normalize": "model",
    "model.serialization": "model",
    "engine.preflight": "engine",
    "engine.dispatch": "engine",
    "kernel.compile": "kernel",
    "kernel.incremental": "kernel",
    "analysis.qpa": "analysis",
    "analysis.processor_demand": "analysis",
    "analysis.devi": "analysis",
    "core.dynamic": "core",
    "core.all_approx": "core",
    "online.admit": "online",
    "online.remove": "online",
    "service.store.get": "service",
    "service.store.put": "service",
}
LAYERS = ("model", "engine", "kernel", "analysis", "core", "online", "service")

#: Registered test -> span name of its runner.
TEST_SPANS = {
    "qpa": ("repro.analysis.qpa", "qpa_test", "analysis.qpa"),
    "processor-demand": (
        "repro.analysis.processor_demand",
        "processor_demand_test",
        "analysis.processor_demand",
    ),
    "devi": ("repro.analysis.devi", "devi_test", "analysis.devi"),
    "dynamic": ("repro.core.dynamic", "dynamic_test", "core.dynamic"),
    "all-approx": ("repro.core.all_approx", "all_approx_test", "core.all_approx"),
}

#: One finished span: (name, start, end, parent index or -1).
Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder; only records while :attr:`armed`."""

    def __init__(self) -> None:
        self.armed = False
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.armed:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)

        traced.__wrapped_by_e2ebench__ = True  # type: ignore[attr-defined]
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        if self.armed:
            self.counts[name] += amount

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        return fold(self.spans)

    def write(self, path: Path) -> None:
        """Write the spans out (at the end of a run, never during it)."""
        path.write_text(json.dumps({"spans": self.spans}))


def fold(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """Fold spans into name -> (self seconds, calls).

    A span's self time is its duration minus the time its direct
    children cover.
    """
    child: Dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    folded: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for index, (name, start, end, _) in enumerate(spans):
        entry = folded[name]
        entry[0] += (end - start) - child.get(index, 0.0)
        entry[1] += 1
    return {name: (value[0], int(value[1])) for name, value in folded.items()}


def _replace_everywhere(original: Callable[..., Any], wrapped: Callable[..., Any]) -> None:
    """Rebind every ``repro`` module global that names *original*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(tracer: Tracer, module: str, attr: str, name: str) -> None:
    original = getattr(sys.modules[module], attr)
    if getattr(original, "__wrapped_by_e2ebench__", False):
        raise RuntimeError(f"{module}.{attr} is already wrapped")
    _replace_everywhere(original, tracer.wrap(name, original))


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw))


def install(tracer: Tracer) -> None:
    """Wrap the public entry of every layer the program runs through."""
    import repro  # noqa: F401  (imports every layer module)
    import repro.analysis.devi  # noqa: F401
    import repro.analysis.processor_demand  # noqa: F401
    import repro.analysis.qpa  # noqa: F401
    import repro.core.all_approx  # noqa: F401
    import repro.core.dynamic  # noqa: F401
    from repro.engine import registry as registry_module
    from repro.engine.context import AnalysisContext
    from repro.engine.registry import TestRegistry
    from repro.kernel.incremental import IncrementalKernel
    from repro.model import components, serialization
    from repro.online import AdmissionController
    from repro.service.store import ResultStore

    if registry_module._DEFAULT is not None:
        raise RuntimeError(
            "the default test registry was built before the wrappers; "
            "its runners would escape tracing"
        )
    _wrap_function(tracer, components.__name__, "as_components", "model.normalize")
    for codec in ("taskset_to_dict", "taskset_from_dict",
                  "result_to_dict", "result_from_dict"):
        _wrap_function(tracer, serialization.__name__, codec, "model.serialization")
    _wrap_method(tracer, AnalysisContext, "of", "engine.preflight")
    _wrap_method(tracer, AnalysisContext, "kernel", "kernel.compile")
    _wrap_method(tracer, TestRegistry, "run", "engine.dispatch")
    for module, attr, name in TEST_SPANS.values():
        _wrap_function(tracer, module, attr, name)
    _wrap_method(tracer, IncrementalKernel, "add", "kernel.incremental")
    _wrap_method(tracer, IncrementalKernel, "remove_span", "kernel.incremental")
    _wrap_method(tracer, AdmissionController, "admit", "online.admit")
    _wrap_method(tracer, AdmissionController, "remove", "online.remove")
    _wrap_method(tracer, ResultStore, "get", "service.store.get")
    _wrap_method(tracer, ResultStore, "put", "service.store.put")


def install_client(tracer: Tracer) -> None:
    """Wrap the service layer's HTTP client (the job-submitting process).

    Retries are counted as transport attempts beyond one per request.
    """
    from repro.service.client import ServiceClient

    _wrap_method(tracer, ServiceClient, "submit", "service.http.submit")
    attempts = ServiceClient.__dict__["_request_once"]
    requests = ServiceClient.__dict__["_request_text"]

    def request_once(self: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.count("client.attempts")
        return attempts(self, *args, **kwargs)

    def request_text(self: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.count("client.requests")
        return requests(self, *args, **kwargs)

    ServiceClient._request_once = request_once  # type: ignore[assignment]
    ServiceClient._request_text = request_text  # type: ignore[assignment]


class Probe:
    """Program-side counters, accumulated over the traced stretches only.

    Call :meth:`begin` and :meth:`end` around each traced stretch; the
    untimed checks and untraced replays in between do not count.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._start: Optional[Dict[str, float]] = None

    @staticmethod
    def read() -> Dict[str, float]:
        from repro.engine import context_cache_info
        from repro.kernel.backend import backend_info
        from repro.obs import span_log

        cache = context_cache_info()
        backend = backend_info()
        return {
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "backend_calls": backend["calls"],
            "backend_fallbacks": backend["fallbacks"],
            "spans": span_log().last_seq,
        }

    def begin(self) -> None:
        self._start = self.read()

    def end(self) -> None:
        if self._start is None:
            return
        for key, value in self.read().items():
            self.totals[key] += value - self._start[key]
        self._start = None


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    folded: Dict[str, Tuple[float, int]],
    probe: Dict[str, float],
    ops: int,
    factor: float,
    extra: Optional[Dict[str, Tuple[float, str]]] = None,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metric set, per op, times calibrated by *factor*.

    Layers a workload does not reach report 0.
    """

    def self_ms(*names: str) -> float:
        return sum(folded.get(n, (0.0, 0))[0] for n in names) * factor * 1e3 / max(ops, 1)

    def calls(name: str) -> float:
        return folded.get(name, (0.0, 0))[1] / max(ops, 1)

    def iterations(name: str) -> float:
        return probe.get(f"iterations.{name}", 0) / max(ops, 1)

    metrics: Dict[str, Tuple[float, str]] = {
        "model.normalize.self_ms": (self_ms("model.normalize"), "ms/op"),
        "model.serialization.self_ms": (self_ms("model.serialization"), "ms/op"),
        "engine.preflight.calls": (calls("engine.preflight"), "count/op"),
        "engine.preflight.self_ms": (self_ms("engine.preflight"), "ms/op"),
        "engine.context_cache.hit_ratio": (
            ratio(probe["cache_hits"], probe["cache_hits"] + probe["cache_misses"]),
            "ratio",
        ),
        "engine.dispatch.self_ms": (self_ms("engine.dispatch"), "ms/op"),
        "kernel.compile.self_ms": (self_ms("kernel.compile"), "ms/op"),
        "kernel.backend.calls": (probe["backend_calls"] / max(ops, 1), "count/op"),
        "kernel.backend.fallback_ratio": (
            ratio(probe["backend_fallbacks"], probe["backend_calls"]), "ratio"
        ),
        "kernel.incremental.self_ms": (self_ms("kernel.incremental"), "ms/op"),
        "analysis.qpa.self_ms": (self_ms("analysis.qpa"), "ms/op"),
        "analysis.qpa.iterations": (iterations("qpa"), "count/op"),
        "analysis.processor_demand.self_ms": (
            self_ms("analysis.processor_demand"), "ms/op"
        ),
        "analysis.processor_demand.iterations": (
            iterations("processor-demand"), "count/op"
        ),
        "core.dynamic.self_ms": (self_ms("core.dynamic"), "ms/op"),
        "core.dynamic.iterations": (iterations("dynamic"), "count/op"),
        "core.all_approx.self_ms": (self_ms("core.all_approx"), "ms/op"),
        "core.all_approx.iterations": (iterations("all-approx"), "count/op"),
        "online.admit.calls": (calls("online.admit"), "count/op"),
        "online.admit.self_ms": (self_ms("online.admit"), "ms/op"),
        "online.remove.self_ms": (self_ms("online.remove"), "ms/op"),
        "service.store.get.calls": (calls("service.store.get"), "count/op"),
        "service.store.get.self_ms": (self_ms("service.store.get"), "ms/op"),
        "service.store.put.calls": (calls("service.store.put"), "count/op"),
        "service.store.put.self_ms": (self_ms("service.store.put"), "ms/op"),
        "obs.spans_per_op": (probe["spans"] / max(ops, 1), "count/op"),
    }
    for name in ONLINE_METRICS + SERVICE_METRICS:
        metrics.setdefault(name[0], (0.0, name[1]))
    if extra:
        metrics.update(extra)
    return metrics


#: Metrics only the admission workload fills in (0 elsewhere).
ONLINE_METRICS = [
    ("online.stage.gate", "count/op"),
    ("online.stage.filter", "count/op"),
    ("online.stage.exact", "count/op"),
    ("online.filter.useful_ratio", "ratio"),
    ("online.exact_ms", "ms"),
    ("online.near_one_redraws", "count/op"),
]
#: Metrics only the service workload fills in (0 elsewhere).
SERVICE_METRICS = [
    ("service.http.submit_ms", "ms"),
    ("service.jobs.queue_wait_ms", "ms"),
    ("service.jobs.exec_ms", "ms"),
    ("service.store.hit_ratio", "ratio"),
    ("service.client.retries", "count/op"),
]


def share_table(
    folded: Dict[str, Tuple[float, int]], total_s: float, factor: float, ops: int
) -> List[str]:
    """Lines of the per-layer self-time / share-of-end-to-end table."""
    per_layer: Dict[str, float] = defaultdict(float)
    for name, (seconds, _) in folded.items():
        per_layer[LAYER_OF.get(name, "other")] += seconds
    lines = [f"  {'layer':<10}{'self ms/op':>12}{'share':>9}"]
    attributed = 0.0
    for layer in LAYERS:
        seconds = per_layer.get(layer, 0.0)
        attributed += seconds
        lines.append(
            f"  {layer:<10}{seconds * factor * 1e3 / max(ops, 1):>12.4f}"
            f"{ratio(seconds, total_s) * 100:>8.1f}%"
        )
    rest = max(total_s - attributed, 0.0)
    lines.append(
        f"  {'(rest)':<10}{rest * factor * 1e3 / max(ops, 1):>12.4f}"
        f"{ratio(rest, total_s) * 100:>8.1f}%"
    )
    return lines
