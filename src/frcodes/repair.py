"""Exact uncoded repair of a single failed node.

Repair replaces every packet the failed node held by downloading one
surviving replica of each, so bandwidth always equals the failed node's
storage. What varies is how many distinct helper nodes must be
contacted: plan_repair finds a provably minimum helper set by exact set
cover over the candidate nodes, walked smallest cardinality first and
lexicographically within a cardinality, so the reported plan is
deterministic. A lost packet that only one candidate holds forces that
candidate into every cover, so the walk starts at the number of forced
candidates. A node whose candidates are all forced has one cover, all
of them, and takes it without a walk, as does every node of a code
whose lost packets each have one other replica. The walk cuts a branch
once its partial union together with all later candidates still misses
a lost packet; such a branch holds no cover, so the cut never changes
which cover is found first. The budget counts the walk's steps, the
unit of the coverage searches (analysis.DEFAULT_BUDGET): each extension
of a partial helper set by one more candidate pays for every candidate
of the level it opens, over every size tried for the node.
plan_repair_greedy gives the no-coordination baseline (each packet
fetched from its lowest-indexed surviving holder) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import DEFAULT_BUDGET
from .core import FrCode, _check_ints
from .errors import BudgetExceeded, KOutOfRange, Unrepairable, _shown


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


def _candidates(code: FrCode, failed: int) -> list[int]:
    """The nodes other than failed that hold one of its packets, in
    index order, after refusing a failed that is not a node and a lost
    packet they do not hold (the highest such packet is named)."""
    _check_ints((("failed", failed),))
    if not 0 <= failed < code.n:
        raise KOutOfRange(f"failed node {_shown(failed)} outside [0, {_shown(code.n)})")
    lost_mask = code.masks[failed]
    candidates = [i for i in range(code.n) if i != failed and code.masks[i] & lost_mask]
    held = 0
    for i in candidates:
        held |= code.masks[i]
    missing = (lost_mask & ~held).bit_length() - 1  # -1 when they hold all
    if missing >= 0:
        raise Unrepairable(f"packet {missing} has no replica outside node {_shown(failed)}")
    return candidates


def _finish_plan(code: FrCode, failed: int, survivors: list[int]) -> RepairPlan:
    """Fetch each lost packet from its first holder among survivors,
    which hold every one."""
    still = code.masks[failed]  # lost packets no survivor so far holds
    assignments = []
    helpers = []
    for h in survivors:
        got = code.masks[h] & still
        if got:
            still ^= got
            helpers.append(h)
        while got:  # packets_from_mask inline: a call per survivor costs more
            low = got & -got
            assignments.append((low.bit_length() - 1, h))
            got ^= low
    assignments.sort()
    return RepairPlan(
        failed=failed,
        assignments=tuple(assignments),
        helpers=tuple(sorted(helpers)),
        repair_degree=len(helpers),
        bandwidth=len(assignments),
    )


def plan_repair(code: FrCode, failed: int, budget: int = DEFAULT_BUDGET) -> RepairPlan:
    """Minimum-helper exact repair plan for one failed node.

    Walks candidate helper subsets by increasing size, from the number
    of candidates that alone hold some lost packet, in lexicographic
    order within a size; the first subset whose members jointly hold
    every lost packet is returned, so ties break toward the
    lexicographically least helper set. A node whose candidates are all
    forced takes them all without a walk. A branch is cut as soon as its
    partial union, joined with every candidate still to come, misses a
    lost packet. Raises InvariantViolation for a budget that is not an
    int, Unrepairable when some lost packet has no other replica, and
    BudgetExceeded once the walk, over all sizes, would take more steps
    than the budget allows.
    """
    _check_ints((("budget", budget),))
    candidates = _candidates(code, failed)
    lost_mask = code.masks[failed]
    restricted = [code.masks[i] & lost_mask for i in candidates]
    c = len(candidates)
    # rest[i] is the union of restricted[i:]; all of them hold every
    # lost packet, as _candidates checked.
    rest = [lost_mask] + [0] * c
    for i in range(c - 1, 0, -1):
        rest[i] = rest[i + 1] | restricted[i]
    # A lost packet held once among the candidates forces its holder
    # into every cover, so no size below the forced count holds one.
    once = twice = 0
    for r in restricted:
        twice |= once & r
        once |= r
    forced = sum(1 for r in restricted if r & ~twice)
    left = budget  # steps still allowed
    for size in range(max(forced, 1), c):
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
                # Pay for every candidate of the level this opens.
                left -= c - size + depth + 1 - i
                if left < 0:
                    raise BudgetExceeded(
                        f"helper-set search for node {_shown(failed)} exceeds budget"
                        f" of {_shown(budget)} steps"
                    )
                chosen.append(i)
                outer.append(union)
                union = grown
            elif grown == lost_mask:
                return _finish_plan(code, failed, [candidates[j] for j in (*chosen, i)])
            i += 1
    # Every candidate is forced: the one cover is the baseline's.
    return _finish_plan(code, failed, candidates)


def plan_repair_greedy(code: FrCode, failed: int) -> RepairPlan:
    """Baseline plan: fetch each lost packet from its lowest-indexed
    surviving holder, with no attempt to share helpers; it refuses as
    plan_repair does."""
    return _finish_plan(code, failed, _candidates(code, failed))
