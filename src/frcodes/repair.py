"""Exact uncoded repair of a single failed node.

Repair replaces every packet the failed node held by downloading one
surviving replica of each, so bandwidth always equals the failed node's
storage. What varies is how many distinct helper nodes must be
contacted: plan_repair finds a provably minimum helper set by exact set
cover over the candidate nodes, walked smallest cardinality first and
lexicographically within a cardinality, so the reported plan is
deterministic. A lost packet that only one candidate holds forces that
candidate into every cover, so the forced candidates are taken without
a walk, and a node whose forced candidates hold every lost packet, as
every node of a code whose lost packets each have one other replica
does, takes no walk at all. The walk covers the rest, the missed
packets, from the other candidates. Every cover holds the forced set,
so among covers of one size, lexicographic order on the walked part is
that on the whole cover. The walk starts at the larger of two lower
bounds on its size: the fewest candidates whose counts of missed
packets add up to all of them, and the number of missed packets that
pairwise share no holder, picked greedily, lowest first among those
with the fewest holders (two, as each missed packet has at least two,
before the rest). It cuts a branch once its partial union together with
all later candidates still misses a packet, and skips a candidate when
the packets still missing after it outnumber what the picks left could
hold, at most the largest count among later candidates each. Such
branches hold no cover, so neither cut changes which cover is found
first. The budget counts the walk's steps, the unit of the coverage
searches (analysis.DEFAULT_BUDGET): each extension of a partial helper
set by one more candidate pays for every candidate of the level it
opens, over every size tried for the node. A budget that answered the
walk with no bound but the forced count, and no cut but the
missing-packet one, answers this walk with the same plan.
plan_repair_greedy gives the no-coordination baseline (each packet
fetched from its lowest-indexed surviving holder) for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_

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
    """Minimum-helper exact repair plan for one failed node: the forced
    candidates and the first cover the walk finds (see the module
    notes), so ties break toward the lexicographically least helper set.
    Raises InvariantViolation for a budget that is not an int,
    Unrepairable when some lost packet has no other replica, and
    BudgetExceeded once the walk, over all sizes, would take more steps
    than the budget allows.
    """
    _check_ints((("budget", budget),))
    candidates = _candidates(code, failed)
    lost_mask = code.masks[failed]
    restricted = [code.masks[i] & lost_mask for i in candidates]
    once = twice = thrice = 0  # lost packets held by at least 1, 2, 3 candidates
    for r in restricted:
        thrice |= twice & r
        twice |= once & r
        once |= r
    # A lost packet held once among the candidates forces its holder into
    # every cover; missed is what the forced candidates leave uncovered.
    # The walk's rows are the other candidates that hold a missed packet,
    # each cut down to the missed packets it holds.
    forced = []
    missed = lost_mask
    walked, rows = candidates, restricted
    if lost_mask & ~twice:
        for h, r in zip(candidates, restricted):
            if r & ~twice:
                forced.append(h)
                missed &= ~r
        if missed:
            walked = [h for h, r in zip(candidates, restricted) if r & missed]
            rows = [r & missed for r in restricted if r & missed]
    if not missed:
        return _finish_plan(code, failed, forced)
    counts = [r.bit_count() for r in rows]
    c = len(rows)
    # rest[i] is the union of rows[i:] and most[i] their largest count.
    rest = [*accumulate(reversed(rows), or_)][::-1] + [0]
    most = [*accumulate(reversed(counts), max)][::-1] + [0]
    # No size holds a cover below the fewest rows whose counts add up to
    # every missed packet, nor below the number of missed packets that
    # pairwise share no holder. Those are picked greedily, lowest first
    # among the fewest holders: every missed packet has two or more, and
    # those with two go first.
    need = missed.bit_count()
    totals = accumulate(sorted(counts, reverse=True))
    least = next(k for k, total in enumerate(totals, 1) if total >= need)
    apart = 0
    free = missed  # missed packets that share no holder with those picked
    while free:
        pool = free & ~thrice or free
        low = pool & -pool
        apart += 1
        for r in rows:
            if r & low:
                free &= ~r
    left = budget  # steps still allowed
    for size in range(max(least, apart), c + 1):  # all c rows cover
        chosen: list[int] = []
        outer: list[int] = []  # outer[d] is the partial union before chosen[d]
        union = 0  # union of rows over chosen
        i = 0  # next candidate for position len(chosen)
        while True:
            depth = len(chosen)
            # Leave the branch when too few candidates remain to fill it,
            # or when all of them together still miss a packet.
            if i > c - size + depth or union | rest[i] != missed:
                if not chosen:
                    break
                i = chosen.pop() + 1
                union = outer.pop()
                continue
            grown = union | rows[i]
            if depth + 1 < size:
                # Skip i when the later picks cannot hold what it leaves.
                if (missed & ~grown).bit_count() <= (size - depth - 1) * most[i + 1]:
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
            elif grown == missed:
                helpers = forced + [walked[j] for j in (*chosen, i)]
                return _finish_plan(code, failed, sorted(helpers))
            i += 1


def plan_repair_greedy(code: FrCode, failed: int) -> RepairPlan:
    """Baseline plan: fetch each lost packet from its lowest-indexed
    surviving holder, with no attempt to share helpers; it refuses as
    plan_repair does."""
    return _finish_plan(code, failed, _candidates(code, failed))
