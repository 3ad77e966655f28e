"""Output checks that do not use the program's code.

A plan is a nested pair structure: a leaf is a relation index, a join
is a ``(left, right)`` pair. Costs are C_out (the sum of the estimated
cardinalities of all joins, the final one included), recomputed here
in log space from the request's own instance so that overflow in the
program shows as a mismatch instead of being copied.
"""

from __future__ import annotations

import math
from collections import deque

#: Largest n the exhaustive search runs on, per instance kind. Chains
#: and cycles have O(n^2) connected sets; the others grow like 2^n and
#: the search is 3^n on cliques.
EXHAUSTIVE_LIMIT = {"chain": 22, "cycle": 22, "star": 13, "tree": 14,
                    "general": 13, "clique": 12}
#: Tolerance on natural-log costs: recomputed and reported costs are sums
#: of the same products in another order.
LOG_TOLERANCE = 1e-7


class CheckError(Exception):
    """A returned plan is wrong."""


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    high, low = (a, b) if a >= b else (b, a)
    return high + math.log1p(math.exp(low - high))


class Instance:
    """An instance prepared for cost arithmetic in log space."""

    def __init__(self, data: dict) -> None:
        self.n = data["n"]
        self.kind = data["kind"]
        self.log_cards = [math.log(card) for card in data["cards"]]
        self.adjacent = [0] * self.n
        self.edges = []
        for a, b, sel in data["edges"]:
            self.adjacent[a] |= 1 << b
            self.adjacent[b] |= 1 << a
            self.edges.append((1 << a, 1 << b, math.log(sel)))

    def crossing_log_sel(self, left: int, right: int) -> float | None:
        """Sum of log selectivities of edges between two sets; None if none."""
        total, found = 0.0, False
        for a, b, log_sel in self.edges:
            if (a & left and b & right) or (a & right and b & left):
                total += log_sel
                found = True
        return total if found else None

    def plan_costs(self, plan) -> tuple[float, float]:
        """(log C_out, log C_out without the final join) of a checked plan.

        Raises CheckError unless every relation appears exactly once and
        every join connects its two inputs by at least one edge.
        """
        joins: list[float] = []
        seen = 0

        def walk(node) -> tuple[int, float]:
            nonlocal seen
            if isinstance(node, int):
                if not 0 <= node < self.n or seen >> node & 1:
                    raise CheckError(f"relation {node} missing or repeated")
                seen |= 1 << node
                return 1 << node, self.log_cards[node]
            left_set, left_card = walk(node[0])
            right_set, right_card = walk(node[1])
            log_sel = self.crossing_log_sel(left_set, right_set)
            if log_sel is None:
                raise CheckError("cross product in plan")
            card = left_card + right_card + log_sel
            joins.append(card)
            return left_set | right_set, card

        walk(plan)
        if seen != (1 << self.n) - 1:
            raise CheckError("plan does not cover every relation")
        total = -math.inf
        for card in joins:
            total = _logaddexp(total, card)
        inner = -math.inf
        for card in joins[:-1]:  # post-order: the root join is last
            inner = _logaddexp(inner, card)
        return total, inner

    def reference_plan(self):
        """Left-deep plan joining relations in BFS order from relation 0."""
        order, seen, queue = [], 1, deque([0])
        while queue:
            node = queue.popleft()
            order.append(node)
            for other in range(self.n):
                if self.adjacent[node] >> other & 1 and not seen >> other & 1:
                    seen |= 1 << other
                    queue.append(other)
        plan = order[0]
        for node in order[1:]:
            plan = (plan, node)
        return plan

    def _neighbours(self, mask: int) -> int:
        result, rest = 0, mask
        while rest:
            low = rest & -rest
            result |= self.adjacent[low.bit_length() - 1]
            rest ^= low
        return result & ~mask

    def _connected_parts(self, subset: int):
        """Connected subsets of ``subset`` holding its lowest relation.

        Each is produced once: a set grows by a non-empty subset of its
        frontier, and the frontier is excluded from later growth.
        """
        stack = [(subset & -subset, 0)]
        while stack:
            current, excluded = stack.pop()
            yield current
            frontier = self._neighbours(current) & subset & ~excluded
            part = frontier
            while part:
                stack.append((current | part, excluded | frontier))
                part = (part - 1) & frontier

    def exhaustive_log_cost(self) -> float | None:
        """Optimal log C_out over all cross-product-free bushy trees."""
        if self.n > EXHAUSTIVE_LIMIT.get(self.kind, 0):
            return None
        log_card: dict[int, float] = {}
        best: dict[int, float] = {}
        frontier = []
        for i in range(self.n):
            log_card[1 << i] = self.log_cards[i]
            best[1 << i] = -math.inf
            frontier.append(1 << i)
        # Grow connected sets level by level; price every split of a set
        # into two connected halves.
        for _size in range(2, self.n + 1):
            grown = set()
            for subset in frontier:
                neighbours = self._neighbours(subset)
                while neighbours:
                    low = neighbours & -neighbours
                    grown.add(subset | low)
                    neighbours ^= low
            for subset in grown:
                champion = math.inf
                for part in self._connected_parts(subset):
                    other = subset ^ part
                    if other and other in best:
                        cost = _logaddexp(best[part], best[other])
                        if cost < champion:
                            champion = cost
                            first, second = part, other
                log_sel = self.crossing_log_sel(first, second)
                log_card[subset] = log_card[first] + log_card[second] + log_sel
                best[subset] = _logaddexp(champion, log_card[subset])
            frontier = grown
        return best[(1 << self.n) - 1]


def plan_from_wire(node: dict):
    """Pair structure of a plan in the ``repro.io`` dict format."""
    if node["kind"] == "leaf":
        return node["relation"]
    return (plan_from_wire(node["left"]), plan_from_wire(node["right"]))


def check_reported(instance: Instance, plan, reported: float) -> tuple[float, float]:
    """Check structure and the reported cost; returns the plan's log costs."""
    log_cost, log_inner = instance.plan_costs(plan)
    if not (isinstance(reported, float) and math.isfinite(reported) and reported > 0):
        raise CheckError(f"reported cost {reported!r} is not a finite positive number")
    if abs(math.log(reported) - log_cost) > LOG_TOLERANCE * max(1.0, abs(log_cost)):
        raise CheckError(
            f"reported cost {reported!r} != recomputed exp({log_cost!r})"
        )
    return log_cost, log_inner


def per_join_log_ratio(instance: Instance, log_inner: float) -> float:
    """log of (plan / reference) C_out without the final join, per join.

    The final join's result size is the same for every plan and is left
    out. Dividing by the number of joins keeps one 100-relation chain,
    whose raw ratio spans a hundred decades, from outweighing the rest.
    """
    _, reference_inner = instance.plan_costs(instance.reference_plan())
    if instance.n < 3:
        return 0.0
    return (log_inner - reference_inner) / (instance.n - 1)
