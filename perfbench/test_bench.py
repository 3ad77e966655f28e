"""The benchmark's own tests; a fast smoke mode of every workload's check.

Run from the root of a checkout, either way::

    python3 perfbench/test_bench.py
    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

The smoke tests plan a few inputs of each workload through the program's
public entry points and put them through the same checks as ``run.py``.
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def _chain3() -> dict:
    return {"label": "chain-3", "kind": "chain", "n": 3, "fixed": False,
            "edges": [[0, 1, 0.1], [1, 2, 0.5]], "cards": [10.0, 20.0, 30.0]}


def test_same_seed_same_bytes():
    for workload in run.WORKLOADS:
        first = instances.digest(instances.inputs_for(workload, 7))
        assert first == instances.digest(instances.inputs_for(workload, 7))
        assert first != instances.digest(instances.inputs_for(workload, 8))


def test_fixed_ladder_rows_ignore_the_seed():
    fixed = [[i for i in instances.ladder_large(seed) if i["fixed"]] for seed in (1, 2)]
    assert fixed[0] == fixed[1] and len(fixed[0]) == len(instances.LADDER_FIXED)


def test_relabel_keeps_the_query():
    import random

    base = instances.make_instance("tree", 9, random.Random(3), random.Random(5))
    copy = instances.relabel(base, random.Random(4))
    assert sorted(copy["cards"]) == sorted(base["cards"])
    assert sorted(e[2] for e in copy["edges"]) == sorted(e[2] for e in base["edges"])


def test_cost_in_log_space():
    instance = check.Instance(_chain3())
    # ((0 1) 2): |01| = 10*20*0.1 = 20, |012| = 20*30*0.5 = 300.
    log_cost, log_inner = instance.plan_costs(((0, 1), 2))
    assert math.isclose(math.exp(log_cost), 320.0)
    assert math.isclose(math.exp(log_inner), 20.0)
    # (0 (1 2)): |12| = 300, C_out = 600; the optimum is 320.
    assert math.isclose(math.exp(instance.exhaustive_log_cost()), 320.0)
    assert instance.reference_plan() == ((0, 1), 2)


def test_rejects_bad_plans():
    instance = check.Instance(_chain3())
    for plan in (((0, 2), 1), ((0, 1), 1), (0, 1)):
        try:
            instance.plan_costs(plan)
        except check.CheckError:
            continue
        raise AssertionError(f"{plan} passed")
    for cost in (float("inf"), 321.0):
        try:
            check.check_reported(instance, ((0, 1), 2), cost)
        except check.CheckError:
            continue
        raise AssertionError(f"cost {cost} passed")


def _plan_and_check(inputs: list[dict], exact: bool, capacity: int = 4):
    from repro.service import PlanService

    checker = run.Checker(inputs)
    with PlanService(cache_capacity=capacity) as service:
        for index, data in enumerate(inputs):
            graph, catalog = worker.to_request(data)
            try:
                response = service.plan(graph, catalog)
            except Exception as error:  # the named overflow fault
                checker.response(index, None, None, f"{type(error).__name__}: {error}")
                continue
            plan = worker.to_pairs(response.plan)
            log_cost = checker.response(index, plan, response.cost)
            if exact and log_cost is not None:
                checker.exact(index, log_cost)
    return checker


def test_smoke_exact_cold():
    small = [i for i in instances.exact_cold(1) if i["n"] <= 13]
    # Every third small instance, and the clique of 12 that DPconv plans.
    picks = small[::3] + [i for i in small if i["kind"] == "clique"]
    assert any(i["kind"] == "clique" for i in picks)
    checker = _plan_and_check(picks, exact=True)
    assert checker.correct and checker.counts() == (len(picks), 0), checker.problems
    assert len(checker.optimum) == len(picks) and None not in checker.optimum.values()


def _fixed(data: dict) -> dict:
    return dict(data, fixed=True)


def test_only_the_named_fault_counts_as_failed():
    fixed = run.Checker([_fixed(_chain3()), _fixed(_chain3()), _fixed(_chain3())])
    # The overflow, raised on every send or reported as a cost of inf.
    for _round in range(2):
        assert fixed.response(0, None, None, run.OVERFLOW_ERROR) is None
        assert fixed.response(1, ((0, 1), 2), float("inf")) is None
    assert fixed.correct and fixed.counts() == (2, 2), fixed.problems
    for error in ("TypeError: bad operand", "AssertionError: other"):
        other = run.Checker([_fixed(_chain3())])
        other.response(0, None, None, error)
        assert not other.correct
    # An inf cost on a malformed plan, and a fault on a seeded row.
    malformed = run.Checker([_fixed(_chain3())])
    malformed.response(0, ((0, 2), 1), float("inf"))
    seeded = run.Checker([_chain3()])
    seeded.response(0, None, None, run.OVERFLOW_ERROR)
    assert not malformed.correct and not seeded.correct
    # A fault that comes and goes.
    flaky = run.Checker([_fixed(_chain3())])
    flaky.response(0, None, None, run.OVERFLOW_ERROR)
    flaky.response(0, ((0, 1), 2), 320.0)
    flaky.counts()
    assert not flaky.correct


def test_smoke_ladder_large():
    rows = instances.ladder_large(1)
    picks = [i for i in rows if not i["fixed"] and i["n"] <= 40]
    checker = _plan_and_check(picks, exact=False)
    assert checker.correct and checker.counts() == (len(picks), 0), checker.problems
    assert 0 < checker.plan_cost_ratio() <= 1.0


def test_smoke_http_hot():
    inputs = instances.http_hot(1)
    pool = inputs["pool"]
    hot = {
        "pool": pool[:8],
        "sequence": [item for item in inputs["sequence"] if item["query"] < 8][:24],
    }
    warmup, timed = run.hot_bodies(hot)
    process, connection, warm, _setup = run.hot_setup(warmup)
    try:
        records = run.hot_loop(connection, timed, 0, len(timed))
    finally:
        connection.close()
        run.stop(process)
    checker_pool = run.Checker(hot["pool"])
    checker_seq = run.Checker([item["instance"] for item in hot["sequence"]])
    latencies, _succeeded, refused = run.check_hot(
        hot, warmup, warm, records, checker_pool, checker_seq
    )
    assert checker_pool.correct and checker_seq.correct, (
        checker_pool.problems + checker_seq.problems
    )
    assert refused == 0 and len(latencies) == len(hot["sequence"])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
