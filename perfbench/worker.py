"""The in-process side of exact-cold and ladder-large.

Run as a child of ``run.py`` with the checkout's ``src`` on the path. It
sets up (imports, a throwaway plan that loads DPconv's numpy backend,
the measured ``PlanService``), prints ``READY`` and waits for one job on
stdin. A job runs rounds of ``PlanService.plan`` calls from this one
thread and prints one JSON result line. With an empty stdin it exits
after set-up, which is how ``run.py`` times set-up more than once.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro.catalog.catalog import Catalog
from repro.core.adaptive import AdaptiveOptimizer
from repro.core.greedy import GreedyOperatorOrdering
from repro.graph.generators import chain_graph, clique_graph
from repro.graph.querygraph import JoinEdge, QueryGraph
from repro.graph.subgraphs import enumerate_csg_cmp_pairs
from repro.service import PlanService

import tracing


def to_request(instance: dict) -> tuple[QueryGraph, Catalog]:
    graph = QueryGraph(
        instance["n"], [JoinEdge(a, b, sel) for a, b, sel in instance["edges"]]
    )
    return graph, Catalog.from_cardinalities(instance["cards"])


def to_pairs(tree):
    """A JoinTree as the checker's nested pairs (leaf = relation index)."""
    if tree.left is None:
        return tree.relations.bit_length() - 1
    return [to_pairs(tree.left), to_pairs(tree.right)]


def warm() -> None:
    """Plan once on each code path so lazy imports happen in set-up."""
    with PlanService(cache_capacity=4) as scratch:
        scratch.plan(clique_graph(8, selectivity=0.1))  # DPconv, numpy
        scratch.plan(chain_graph(30, selectivity=0.1))  # LinDP, IKKBZ, GOO


def run_rounds(service, requests, seconds, rounds, tracer=None, min_rounds=1):
    """Whole rounds over ``requests``: exactly ``rounds`` when given, else
    until ``seconds`` have passed and at least ``min_rounds`` are done."""
    records = []
    started = time.perf_counter()
    round_seconds = []
    while True:
        round_started = time.perf_counter()
        for index, (graph, catalog) in enumerate(requests):
            span = tracer.open("request", root=True) if tracer else None
            begin = time.perf_counter()
            try:
                response = service.plan(graph, catalog)
                error = None
            except Exception as failure:  # the program's fault, counted
                response, error = None, f"{type(failure).__name__}: {failure}"
            latency = time.perf_counter() - begin
            if span is not None:
                tracer.close(span)
            records.append((index, latency, response, error))
        round_seconds.append(time.perf_counter() - round_started)
        done = len(round_seconds)
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done >= min_rounds:
            if time.perf_counter() - started >= seconds:
                break
    return records, round_seconds


def encode(records) -> list[dict]:
    out = []
    for index, latency, response, error in records:
        entry = {"index": index, "latency": latency, "error": error}
        if response is not None:
            entry.update(
                plan=to_pairs(response.plan),
                cost=response.cost,
                cache_hit=response.cache_hit,
                degraded=response.degraded,
                algorithm=response.algorithm,
            )
        out.append(entry)
    return out


def cache_counts(service) -> dict:
    cache = service.snapshot()["cache"]
    return {key: cache[key] for key in ("hits", "misses", "evictions")}


def goo_plans(requests, records) -> list:
    """GOO's plan per instance LinDP answered (the ladder's upper bracket)."""
    lindp = {
        index for index, _latency, response, _error in records
        if response is not None and "lindp" in response.algorithm
    }
    plans = []
    for index, (graph, catalog) in enumerate(requests):
        if index not in lindp:
            plans.append(None)
            continue
        try:
            result = GreedyOperatorOrdering().optimize(graph, catalog=catalog)
            plans.append([to_pairs(result.plan), result.cost])
        except Exception:  # GOO fails on the overflow rows; no bracket then
            plans.append(None)
    return plans


def csg_enumerate_ms(requests) -> float:
    """Mean time of enumerate_csg_cmp_pairs on the exact-routed graphs."""
    router = AdaptiveOptimizer()
    times = []
    for graph, _catalog in requests:
        if router.route(graph).algorithm != "dpccp":
            continue
        numbered, _ = graph.bfs_renumbered()
        begin = time.perf_counter()
        for _pair in enumerate_csg_cmp_pairs(numbered):
            pass
        times.append(time.perf_counter() - begin)
    return 1e3 * sum(times) / len(times) if times else 0.0


def main() -> int:
    warm()
    capacity = int(sys.argv[1])
    service = PlanService(cache_capacity=capacity)
    print("READY", flush=True)
    line = sys.stdin.readline()
    if not line:
        service.close()
        return 0
    job = json.loads(line)
    requests = [to_request(instance) for instance in job["instances"]]
    result = {}
    if not job["trace"]:
        records, round_seconds = run_rounds(
            service, requests, job["seconds"], None, min_rounds=job["min_rounds"]
        )
        result["records"] = encode(records)
        result["round_seconds"] = round_seconds
        result["cache"] = cache_counts(service)
        if job["goo"]:
            result["goo"] = goo_plans(requests, records)
    else:
        # Untraced, traced, untraced again: the overhead compares each
        # traced request with the mean of its two untraced runs, so
        # drift and first-run effects cancel.
        rounds = job["trace_rounds"]
        before, _ = run_rounds(service, requests, 0.0, rounds)
        result["csg_ms"] = csg_enumerate_ms(requests)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        traced_service = PlanService(cache_capacity=capacity)
        traced, _ = run_rounds(traced_service, requests, 0.0, rounds, tracer)
        result["cache"] = cache_counts(traced_service)
        traced_service.close()
        uninstall()
        after, _ = run_rounds(service, requests, 0.0, rounds)
        result["records"] = encode(traced)
        result["plain_latencies"] = [
            (first[1] + second[1]) / 2 for first, second in zip(before, after)
        ]
        tracer.write(job["spans_out"])
    service.close()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
