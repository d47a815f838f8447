"""Exact uncoded repair of a single failed node.

Repair replaces every packet the failed node held by downloading one
surviving replica of each, so bandwidth always equals the failed node's
storage. What varies is how many distinct helper nodes must be
contacted: plan_repair finds a provably minimum helper set by exact set
cover over the candidate nodes, walked smallest cardinality first and
lexicographically within a cardinality, so the reported plan is
deterministic. The walk cuts a branch once its partial union together
with all later candidates still misses a lost packet; such a branch
holds no cover, so the cut never changes which cover is found first.
The budget is an up-front estimate: the sum of C(c, size) over the
sizes tried, for c candidate helpers. plan_repair_greedy gives the
no-coordination baseline (each packet fetched from its lowest-indexed
surviving holder) for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import DEFAULT_BUDGET
from .core import FrCode
from .errors import BudgetExceeded, KOutOfRange, Unrepairable


@dataclass(frozen=True)
class RepairPlan:
    """One uncoded repair: packet -> helper assignments for a failed node.

    assignments pairs every lost packet with the helper it is fetched
    from, sorted by packet. helpers is the sorted set of distinct
    helpers; repair_degree = len(helpers); bandwidth = number of lost
    packets (one download each).
    """

    failed: int
    assignments: tuple[tuple[int, int], ...]
    helpers: tuple[int, ...]
    repair_degree: int
    bandwidth: int


def _finish_plan(
    code: FrCode, failed: int, survivors: tuple[int, ...]
) -> RepairPlan:
    """Fetch each lost packet from its first holder among survivors."""
    lost = code.packets(failed)
    assignments = []
    for packet in lost:
        helper = next((h for h in survivors if code.masks[h] >> packet & 1), None)
        if helper is None:
            raise Unrepairable(f"packet {packet} has no replica outside node {failed}")
        assignments.append((packet, helper))
    helpers = tuple(sorted({h for _, h in assignments}))
    return RepairPlan(
        failed=failed,
        assignments=tuple(assignments),
        helpers=helpers,
        repair_degree=len(helpers),
        bandwidth=len(lost),
    )


def plan_repair(code: FrCode, failed: int, budget: int = DEFAULT_BUDGET) -> RepairPlan:
    """Minimum-helper exact repair plan for one failed node.

    Walks candidate helper subsets by increasing size, in lexicographic
    order within a size; the first subset whose members jointly hold
    every lost packet is returned, so ties break toward the
    lexicographically least helper set. A branch is cut as soon as its
    partial union, joined with every candidate still to come, misses a
    lost packet. Raises Unrepairable when some lost packet has no other
    replica, and BudgetExceeded when the running sum of C(c, size) over
    the c candidates outgrows the budget, checked before each size.
    """
    if not 0 <= failed < code.n:
        raise KOutOfRange(f"failed node {failed} outside [0, {code.n})")
    lost_mask = code.masks[failed]
    if lost_mask == 0:
        return _finish_plan(code, failed, ())
    candidates = [
        i for i in range(code.n) if i != failed and code.masks[i] & lost_mask
    ]
    restricted = [code.masks[i] & lost_mask for i in candidates]
    c = len(candidates)
    rest = [0] * (c + 1)  # rest[i] is the union of restricted[i:]
    for i in range(c - 1, -1, -1):
        rest[i] = rest[i + 1] | restricted[i]
    if rest[0] != lost_mask:
        missing = (lost_mask & ~rest[0]).bit_length() - 1
        raise Unrepairable(f"packet {missing} has no replica outside node {failed}")
    examined = 0
    for size in range(1, c + 1):
        examined += math.comb(c, size)
        if examined > budget:
            raise BudgetExceeded(
                f"helper-set search for node {failed} exceeds budget {budget}"
            )
        chosen: list[int] = []
        outer: list[int] = []  # outer[d] is the partial union before chosen[d]
        union = 0  # union of restricted over chosen
        i = 0  # next candidate for position len(chosen)
        while True:
            depth = len(chosen)
            # Leave the branch when too few candidates remain to fill it,
            # or when all of them together still miss a lost packet.
            if i > c - size + depth or union | rest[i] != lost_mask:
                if not chosen:
                    break
                i = chosen.pop() + 1
                union = outer.pop()
                continue
            grown = union | restricted[i]
            if depth + 1 < size:
                chosen.append(i)
                outer.append(union)
                union = grown
            elif grown == lost_mask:
                return _finish_plan(
                    code, failed, tuple(candidates[j] for j in (*chosen, i))
                )
            i += 1
    raise AssertionError("coverable candidates must admit a cover")


def plan_repair_greedy(code: FrCode, failed: int) -> RepairPlan:
    """Baseline plan: fetch each lost packet from its lowest-indexed
    surviving holder, with no attempt to share helpers."""
    if not 0 <= failed < code.n:
        raise KOutOfRange(f"failed node {failed} outside [0, {code.n})")
    return _finish_plan(code, failed, tuple(i for i in range(code.n) if i != failed))


def repair_degree_profile(code: FrCode, budget: int = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Minimum helper count for every node, in node order."""
    return tuple(
        plan_repair(code, failed, budget=budget).repair_degree
        for failed in range(code.n)
    )
