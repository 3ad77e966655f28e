"""Seeded input generation for the three workloads.

Every instance is plain data: ``{"label", "kind", "n", "edges", "cards",
"fixed"}`` with ``edges`` a list of ``[left, right, selectivity]``. The
shapes and statistics come from the repo's own generators
(``graph_for_topology``, ``random_tree_graph``, ``random_connected_graph``
with seeded selectivities, ``random_catalog``); each instance draws from
its own ``random.Random`` keyed by ``(seed, workload, index)``, so the
same seed gives byte-identical inputs (see :func:`digest`). The program
under test only ever receives these instances, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.catalog.synthetic import random_catalog
from repro.graph.generators import (
    graph_for_topology,
    random_connected_graph,
    random_tree_graph,
)

HOT_POOL_SIZE = 192
HOT_SEQUENCE_LENGTH = 4096
HOT_ZIPF_S = 1.0
HOT_KINDS = ("chain", "cycle", "star", "tree")
HOT_SIZES = range(4, 13)

#: exact-cold: (kind, n) per round, at and just below every exact ceiling
#: of the routing table (chain/cycle 22, star/tree 14, general 13, dense
#: through DPconv 16). The clique of 12 is the one DPconv plan small
#: enough for the checker's own exhaustive search.
COLD_PLAN = (
    [("chain", n) for n in (20, 21, 22) * 3]
    + [("cycle", n) for n in (20, 21, 22) * 3]
    + [("star", n) for n in (12, 13, 14)]
    + [("tree", n) for n in (12, 13, 14) * 4]
    + [("general", n) for n in (11, 12, 13) * 2]
    + [("clique", n) for n in (12, 14, 15, 16)]
)
#: Plan-cache capacity for exact-cold: below the round length, so the
#: cyclic access pattern misses on every request.
COLD_CACHE_CAPACITY = 8

#: ladder-large, seeded part: LinDP rows at sizes every seed plans
#: without overflowing C_out (n <= 100 under these generators).
LADDER_KINDS = ("chain", "cycle", "star", "tree", "general", "clique")
LADDER_SIZES = (24, 40, 56, 72, 88, 100)
#: ladder-large, fixed part: the LinDP rows past n=140 and the IDP rows
#: (chain/cycle to 400), where C_out overflows IEEE doubles. These do not
#: depend on the seed, because whether a size overflows does: they are
#: drawn from FIXED_SEED and fail on every run (see README, "Known fault").
LADDER_FIXED = (
    ("chain", 140),
    ("cycle", 140),
    ("star", 160),
    ("tree", 160),
    ("chain", 200),
    ("cycle", 400),
)
FIXED_SEED = 1
LADDER_CACHE_CAPACITY = 8


def _rng(seed: int | str, tag: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{tag}:{index}")


def make_instance(kind: str, n: int, shape: random.Random, stats: random.Random) -> dict:
    """One instance of ``kind`` (chain/cycle/star/clique/tree/general).

    ``shape`` draws the edges of random trees and general graphs;
    ``stats`` draws the selectivities (uniform in [0.001, 0.5], as the
    generators do) and the cardinalities (``random_catalog``).
    """
    if kind == "tree":
        graph = random_tree_graph(n, shape, selectivity=1.0)
    elif kind == "general":
        # About 1.5 extra edges per relation: cyclic but far from dense.
        graph = random_connected_graph(
            n, shape, extra_edge_probability=3.0 / n, selectivity=1.0
        )
    else:
        graph = graph_for_topology(kind, n, selectivity=1.0)
    return {
        "label": f"{kind}-{n}",
        "kind": kind,
        "n": n,
        "edges": [
            [e.left, e.right, stats.uniform(0.001, 0.5)] for e in graph.edges
        ],
        "cards": list(random_catalog(n, stats).cardinalities()),
        "fixed": False,
    }


def _instance(seed: int | str, tag: str, index: int, kind: str, n: int) -> dict:
    """Shapes are part of the workload; the seed draws the statistics."""
    return make_instance(kind, n, _rng("shape", tag, index), _rng(seed, tag, index))


def relabel(instance: dict, rng: random.Random) -> dict:
    """The same query with relation ``i`` renumbered ``perm[i]``."""
    n = instance["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    cards = [0.0] * n
    for old, card in enumerate(instance["cards"]):
        cards[perm[old]] = card
    edges = [[perm[a], perm[b], sel] for a, b, sel in instance["edges"]]
    rng.shuffle(edges)
    return dict(instance, edges=edges, cards=cards)


def plan_body(instance: dict) -> dict:
    """``POST /plan`` body in the wire format of ``repro.io``."""
    return {
        "graph": {
            "kind": "query_graph",
            "n_relations": instance["n"],
            "edges": [
                {"left": a, "right": b, "selectivity": sel}
                for a, b, sel in instance["edges"]
            ],
        },
        "catalog": {
            "kind": "catalog",
            "relations": [
                {"name": f"R{i}", "cardinality": card}
                for i, card in enumerate(instance["cards"])
            ],
        },
    }


def sql_text(instance: dict) -> str:
    """The instance as SQL; relation ``i`` is the ``i``-th FROM item."""
    tables = ", ".join(
        f"r{i} ({card!r})" for i, card in enumerate(instance["cards"])
    )
    predicates = " AND ".join(
        f"r{a}.j{k} = r{b}.j{k} [{sel!r}]"
        for k, (a, b, sel) in enumerate(instance["edges"])
    )
    return f"SELECT * FROM {tables} WHERE {predicates}"


def http_hot(seed: int) -> dict:
    """The pooled queries and the timed request sequence of http-hot.

    Query ``i`` appears in the sequence in proportion to its Zipf weight
    ``1 / (i + 1)``. Its ``k``-th request is an exact repeat of a warmed
    body (byte for byte) for even ``k`` and a relabelled copy (the same
    query, relations renumbered) for odd ``k``, and goes to ``/plan_sql``
    when ``k % 4 == 1``: half exact repeats, a quarter SQL, on every
    seed. The seed shuffles the order and draws statistics and
    relabellings.
    """
    pool = [
        _instance(
            seed, "hot", index,
            HOT_KINDS[index % len(HOT_KINDS)], HOT_SIZES[index % len(HOT_SIZES)],
        )
        for index in range(HOT_POOL_SIZE)
    ]
    draw = random.Random(f"{seed}:hot-sequence")
    # Query i is the i-th most popular; kinds and sizes cycle through the
    # ranks, so every popularity band holds every shape.
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(HOT_POOL_SIZE)]
    scale = HOT_SEQUENCE_LENGTH / sum(weights)
    order = [
        query
        for query, weight in enumerate(weights)
        for _ in range(max(1, round(weight * scale)))
    ]
    draw.shuffle(order)
    sequence, seen = [], [0] * HOT_POOL_SIZE
    for query in order:
        k = seen[query]
        seen[query] += 1
        exact = k % 2 == 0
        sequence.append({
            "query": query,
            "exact": exact,
            "route": "/plan_sql" if k % 4 == 1 else "/plan",
            "instance": pool[query] if exact else relabel(pool[query], draw),
        })
    return {"pool": pool, "sequence": sequence}


def exact_cold(seed: int) -> list[dict]:
    """The exact-cold round: distinct instances near every exact ceiling."""
    return [
        _instance(seed, "cold", index, kind, n)
        for index, (kind, n) in enumerate(COLD_PLAN)
    ]


def ladder_large(seed: int) -> list[dict]:
    """The ladder-large round: seeded LinDP rows, then the fixed rows."""
    seeded = [
        _instance(seed, "ladder", index, kind, n)
        for index, (kind, n) in enumerate(
            (kind, n) for n in LADDER_SIZES for kind in LADDER_KINDS
        )
    ]
    fixed = []
    for index, (kind, n) in enumerate(LADDER_FIXED):
        instance = _instance(FIXED_SEED, "ladder-fixed", index, kind, n)
        instance["fixed"] = True
        fixed.append(instance)
    return seeded + fixed


def inputs_for(workload: str, seed: int):
    """All inputs of one workload for one seed."""
    if workload == "http-hot":
        return http_hot(seed)
    if workload == "exact-cold":
        return exact_cold(seed)
    if workload == "ladder-large":
        return ladder_large(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON encoding of ``inputs``."""
    encoded = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()

