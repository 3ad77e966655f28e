"""Spans recorded around the program's layer boundaries, from outside.

:func:`install` replaces public functions of each layer with wrappers
that record a span (name, start, end, parent, request id) in memory.
Nothing inside the program changes. The parent of a span is the most
recently opened span that is still open, on any thread: one request is
in flight at a time, so that is the span that caused it, also across the
service's thread hand-offs. :func:`layer_metrics` derives each layer's
self time and counts from the spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: The per-layer metrics, in the order they are reported, with units.
LAYER_METRICS = {
    "server.self_us": "us",
    "server.refused": "count",
    "io.decode_us": "us",
    "io.encode_us": "us",
    "sql.prepare_us": "us",
    "fingerprint.call_us": "us",
    "fingerprint.calls": "count",
    "cache.lookup_us": "us",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "service.self_us": "us",
    "service.wait_us": "us",
    "relabel.call_us": "us",
    "route.call_us": "us",
    "route.exact": "count",
    "route.lindp": "count",
    "route.idp": "count",
    "route.goo": "count",
    "dp.optimize_ms": "ms",
    "dp.inner_counter": "count",
    "dp.ccp_pairs": "count",
    "dp.join_tree_calls": "count",
    "dp.table_probes": "count",
    "dp.ccp_per_inner": "ratio",
    "csg.enumerate_ms": "ms",
    "lindp.optimize_ms": "ms",
    "ikkbz.order_ms": "ms",
    "idp.optimize_ms": "ms",
    "goo.optimize_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._request = 0

    def open(self, name: str, root: bool = False) -> dict:
        with self._lock:
            self._next_id += 1
            if root:
                self._request += 1
            span = {
                "id": self._next_id,
                "name": name,
                "parent": self._open[-1] if self._open and not root else None,
                "request": self._request,
                "start": time.perf_counter(),
                "end": None,
            }
            self._open.append(span["id"])
            return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self._open.remove(span["id"])
            self.spans.append(span)

    def wrap(self, name: str, function, on_result=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                span["counts"] = on_result(result)
            return result

        return wrapper

    def wrap_async(self, name: str, function, root: bool = False):
        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            span = self.open(name, root)
            try:
                return await function(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_route(decision) -> dict:
    return {f"route.{decision.rung}": 1}


def _count_dp(result) -> dict:
    return {
        "dp.inner_counter": result.counters.inner_counter,
        "dp.ccp_pairs": result.counters.csg_cmp_pair_counter,
        "dp.join_tree_calls": result.counters.create_join_tree_calls,
        "dp.table_probes": result.table_probes,
    }


def install(tracer: Tracer, server: bool = False):
    """Wrap each layer's public functions with spans of ``tracer``.

    Returns a function that puts the original functions back.
    """
    import repro.core.lindp as lindp_module
    import repro.pipeline as pipeline
    import repro.service.optimizer_service as service_module
    from repro.core.adaptive import AdaptiveOptimizer
    from repro.core.dpccp import DPccp
    from repro.core.dpconv import DPconv
    from repro.core.dpsub import DPsub
    from repro.core.greedy import GreedyOperatorOrdering
    from repro.core.idp import IterativeDP
    from repro.core.lindp import LinDP
    from repro.service.sharding import ShardedPlanCache

    service_class = service_module.PlanService
    # (owner, attribute, span name, on_result)
    targets = [
        (service_class, "plan_request", "service.request", None),
        (service_class, "plan_sql", "service.sql", None),
        (pipeline, "prepare_query", "sql.prepare", None),
        (service_module, "compute_fingerprint", "fingerprint", None),
        (service_module, "relabel_plan", "relabel", None),
        (ShardedPlanCache, "get_or_join", "cache.lookup", None),
        (AdaptiveOptimizer, "route", "route", _count_route),
        (DPccp, "optimize", "dp.optimize", _count_dp),
        (DPsub, "optimize", "dp.optimize", _count_dp),
        (DPconv, "optimize", "dp.optimize", _count_dp),
        (LinDP, "optimize", "lindp.optimize", None),
        (IterativeDP, "optimize", "idp.optimize", None),
        (GreedyOperatorOrdering, "optimize", "goo.optimize", None),
        (lindp_module, "ikkbz_order_for_root", "ikkbz.order", None),
    ]
    if server:
        import repro.server.app as app
        from repro.server.protocol import HttpRequest

        targets += [
            (HttpRequest, "json", "io.decode", None),
            (app, "graph_from_dict", "io.decode", None),
            (app, "catalog_from_dict", "io.decode", None),
            (app, "plan_to_dict", "io.encode", None),
            (app, "render_response", "io.encode", None),
        ]
    restore = []
    for owner, attribute, name, on_result in targets:
        restore.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), on_result))
    if server:
        # The server's public surface is the socket; its request entry
        # point is the one private method wrapped here.
        restore.append((app.PlanServer, "_dispatch", app.PlanServer._dispatch))
        app.PlanServer._dispatch = tracer.wrap_async(
            "server.dispatch", app.PlanServer._dispatch, root=True
        )

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    return uninstall


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def layer_metrics(
    spans: list[dict],
    requests: int,
    sql_requests: int,
    cache: dict[str, int],
    refused: int,
    csg_ms: float,
    overhead_pct: float,
) -> dict[str, float]:
    """Every per-layer metric of :data:`LAYER_METRICS` from one traced run.

    ``*_us`` per-request figures divide by ``requests`` (``sql.prepare_us``
    by ``sql_requests``); ``*.call_us`` and ``*.optimize_ms`` are means
    per call; counts are totals of the traced phase.
    """
    self_time = _self_times(spans)
    by_name: dict[str, list[dict]] = {}
    counts: dict[str, int] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value

    def total(name: str, self_only: bool = False) -> float:
        return sum(
            self_time[s["id"]] if self_only else s["end"] - s["start"]
            for s in by_name.get(name, ())
        )

    def per_call(name: str, scale: float) -> float:
        calls = len(by_name.get(name, ()))
        return total(name) * scale / calls if calls else 0.0

    def per_request(value: float, count: int = requests) -> float:
        return value * 1e6 / count if count else 0.0

    # The caller's wait for the plan: from the end of its cache lookup to
    # the start of the relabel that answers it.
    wait = 0.0
    lookups = {}
    for span in by_name.get("cache.lookup", ()):
        lookups[span["parent"]] = span["end"]
    for span in by_name.get("relabel", ()):
        if span["parent"] in lookups:
            wait += span["start"] - lookups[span["parent"]]
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    inner = counts.get("dp.inner_counter", 0)
    lindp_calls = len(by_name.get("lindp.optimize", ()))
    metrics = {
        "server.self_us": per_request(total("server.dispatch", True)),
        "server.refused": refused,
        "io.decode_us": per_request(total("io.decode")),
        "io.encode_us": per_request(total("io.encode")),
        "sql.prepare_us": per_request(total("sql.prepare"), sql_requests),
        "fingerprint.call_us": per_call("fingerprint", 1e6),
        "fingerprint.calls": len(by_name.get("fingerprint", ())),
        "cache.lookup_us": per_call("cache.lookup", 1e6),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": cache.get("evictions", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.self_us": per_request(
            total("service.request", True) + total("service.sql", True)
        ),
        "service.wait_us": per_request(wait),
        "relabel.call_us": per_call("relabel", 1e6),
        "route.call_us": per_call("route", 1e6),
        "dp.optimize_ms": per_call("dp.optimize", 1e3),
        "dp.inner_counter": inner,
        "dp.ccp_pairs": counts.get("dp.ccp_pairs", 0),
        "dp.join_tree_calls": counts.get("dp.join_tree_calls", 0),
        "dp.table_probes": counts.get("dp.table_probes", 0),
        "dp.ccp_per_inner": counts.get("dp.ccp_pairs", 0) / inner if inner else 0.0,
        "csg.enumerate_ms": csg_ms,
        "lindp.optimize_ms": per_call("lindp.optimize", 1e3),
        "ikkbz.order_ms": (
            total("ikkbz.order") * 1e3 / lindp_calls if lindp_calls else 0.0
        ),
        "idp.optimize_ms": per_call("idp.optimize", 1e3),
        "goo.optimize_ms": per_call("goo.optimize", 1e3),
        "trace.overhead_pct": overhead_pct,
    }
    for rung in ("exact", "lindp", "idp", "goo"):
        metrics[f"route.{rung}"] = counts.get(f"route.{rung}", 0)
    return metrics
