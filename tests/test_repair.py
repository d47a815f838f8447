from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frcodes import (
    BudgetExceeded,
    FrcError,
    InvariantViolation,
    KOutOfRange,
    PrgSpec,
    RingSpec,
    Unrepairable,
    build_prg,
    build_ring,
    make_code,
    plan_repair,
    plan_repair_greedy,
)
from frcodes.analysis import DEFAULT_BUDGET
from frcodes.repair import _finish_plan
from oracles import (
    brute_first_holder_plan,
    brute_lex_least_helpers,
    brute_min_helper_count,
    walk_plan_repair,
)
from strategies import small_codes


def random_repairable_code(rng, max_n=9, max_theta=14):
    """Every packet lands on at least two nodes, so any single failure
    is repairable."""
    n = rng.randint(2, max_n)
    theta = rng.randint(1, max_theta)
    storage = [set() for _ in range(n)]
    for j in range(theta):
        count = rng.randint(2, n)
        for i in rng.sample(range(n), count):
            storage[i].add(j)
    return make_code(n, theta, storage)


def test_plan_repair_ring_example():
    code = build_ring(RingSpec(5, 5, 2))
    plan = plan_repair(code, 0)
    assert plan.failed == 0
    assert plan.helpers == (1, 4)
    assert plan.repair_degree == 2
    assert plan.bandwidth == 2
    assert plan.assignments == ((0, 1), (4, 4))


def test_plan_repair_prg_example():
    code = build_prg(PrgSpec(7, 5))
    plan = plan_repair(code, 6)
    assert plan.bandwidth == 4
    assert plan.repair_degree == 4


def test_plan_repair_bad_node():
    code = build_ring(RingSpec(5, 5, 2))
    with pytest.raises(KOutOfRange):
        plan_repair(code, 5)
    with pytest.raises(KOutOfRange):
        plan_repair_greedy(code, -1)
    with pytest.raises(InvariantViolation, match="^failed=True is not an integer$"):
        plan_repair(code, True)
    with pytest.raises(InvariantViolation, match="^failed=1.0 is not an integer$"):
        plan_repair_greedy(code, 1.0)


def test_plan_repair_unrepairable():
    code = make_code(2, 2, [{0, 1}, {0}])
    with pytest.raises(Unrepairable):
        plan_repair(code, 0)
    with pytest.raises(Unrepairable):
        plan_repair_greedy(code, 0)
    # the singly held packet is fine as long as its holder survives
    assert plan_repair(code, 1).helpers == (0,)


def test_plan_repair_empty_node():
    code = make_code(3, 2, [{0, 1}, {0, 1}, set()])
    plan = plan_repair(code, 2)
    assert plan.helpers == ()
    assert plan.repair_degree == 0
    assert plan.bandwidth == 0


def edge_cover_code(n):
    """Node 0 holds the n vertices of K_n and each other node one edge."""
    edges = [set(edge) for edge in combinations(range(n), 2)]
    return make_code(1 + len(edges), n, [range(n), *edges])


def test_plan_repair_budget():
    # Node 0 shares a packet with each of 27 candidates, each
    # indispensable, so the one cover holds all 27 and takes no walk.
    code = make_code(28, 27, [set(range(27))] + [{j} for j in range(27)])
    assert plan_repair(code, 0, budget=0).repair_degree == 27
    assert plan_repair(code, 0, budget=0) == plan_repair_greedy(code, 0)
    # A 28th candidate that also holds packet 0 leaves 26 forced. They
    # miss packet 0 alone, which candidate 1 holds, so the walk over the
    # two unforced candidates answers at size 1 before any descent. The
    # walk over all 28 paid 177 steps for sizes 26 and 27.
    code = make_code(29, 27, [set(range(27))] + [{j} for j in range(27)] + [{0}])
    plan = plan_repair(code, 0, budget=0)
    assert plan.helpers == tuple(range(1, 28))
    assert walk_plan_repair(code, 0, budget=177) == plan
    with pytest.raises(BudgetExceeded):
        walk_plan_repair(code, 0, budget=176)
    # Node 0 holds the vertices of K_12 and each other node one edge. Six
    # edges hold two vertices each, so the walk starts at six and takes
    # only edges that leave the rest coverable: 145 steps. The
    # lexicographically least perfect matching is also what
    # brute_lex_least_helpers returns, after about a minute.
    code = edge_cover_code(12)
    plan = plan_repair(code, 0, budget=145)
    assert plan == plan_repair(code, 0, budget=10**4) == walk_plan_repair(code, 0, 10**7)
    assert plan.helpers == (1, 22, 39, 52, 61, 66)
    message = "^helper-set search for node 0 exceeds budget of 144 steps$"
    with pytest.raises(BudgetExceeded, match=message):
        plan_repair(code, 0, budget=144)


@pytest.mark.parametrize("n", [20, 40, 100])
def test_edge_covers_answer_from_the_count_bound(n):
    # No vertex is forced. n // 2 edges are needed, and the count cut
    # keeps only edges that meet no vertex covered so far, so the walk
    # finds the least perfect matching without backtracking. The walk
    # with no bound but the forced count refuses all three at the
    # default budget.
    code = edge_cover_code(n)
    plan = plan_repair(code, 0)
    with pytest.raises(BudgetExceeded):
        walk_plan_repair(code, 0, DEFAULT_BUDGET)
    pairs = [(v, v + 1) for v in range(0, n, 2)]
    index = {edge: i for i, edge in enumerate(combinations(range(n), 2), start=1)}
    assert plan.helpers == tuple(index[pair] for pair in pairs)
    assert plan.assignments == tuple((v, index[(v - v % 2, v - v % 2 + 1)]) for v in range(n))


def test_plan_repair_starts_at_the_forced_helpers():
    # On prg codes every lost packet has one other replica, so all c
    # candidates are forced and the plan takes no walk.
    code = build_prg(PrgSpec(21, 17))
    for failed in range(code.n):
        c = 17 if failed < 20 else 16  # node 20 has one edge fewer
        assert plan_repair(code, failed, budget=0).repair_degree == c
    # Nodes 2, 4 and 6 alone hold packets 0, 1 and 2, and are taken. The
    # walk covers packets 3..5 from nodes 1, 3 and 5 alone, two at a
    # time, so it starts at size 2 and answers after one descent over
    # two candidates. The walk over all six candidates paid 39 steps.
    code = make_code(7, 6, [range(6), {3, 4}, {0}, {4, 5}, {1}, {5, 3}, {2}])
    plan = plan_repair(code, 0, budget=2)
    assert plan.helpers == brute_lex_least_helpers(code, 0) == (1, 2, 3, 4, 6)
    assert plan == walk_plan_repair(code, 0, budget=39)
    with pytest.raises(BudgetExceeded):
        plan_repair(code, 0, budget=1)
    with pytest.raises(BudgetExceeded):
        walk_plan_repair(code, 0, budget=38)


@st.composite
def mixed_nodes(draw):
    """A code whose node 0 loses packets some of which one other node
    holds, so those holders are forced, while the rest have two or
    more other holders."""
    n = draw(st.integers(3, 9), label="n")
    theta = draw(st.integers(1, 10), label="theta")
    storage = [set(range(theta))] + [set() for _ in range(n - 1)]
    for j in range(theta):
        count = draw(st.integers(1, min(3, n - 1)), label="replicas")
        for i in draw(st.permutations(range(1, n)), label="holders")[:count]:
            storage[i].add(j)
    return make_code(n, theta, storage)


@settings(max_examples=150, deadline=None)
@given(mixed_nodes())
def test_forced_helpers_and_the_walk_over_the_rest_give_the_oracle_plan(code):
    plan = plan_repair(code, 0)
    assert plan.helpers == brute_lex_least_helpers(code, 0)
    assert plan == walk_plan_repair(code, 0, budget=10**7)


@st.composite
def unforced_codes(draw):
    """A code whose packets each sit on three to five nodes, so a failed
    node's candidates are mostly unforced, with up to 40 packets."""
    n = draw(st.integers(6, 14), label="n")
    theta = draw(st.integers(4, 40), label="theta")
    storage = [set() for _ in range(n)]
    for j in range(theta):
        rho = draw(st.integers(3, 5), label="rho")
        for i in draw(st.permutations(range(n)), label="holders")[:rho]:
            storage[i].add(j)
    assume(all(storage))
    return make_code(n, theta, storage)


@settings(max_examples=100, deadline=None)
@given(unforced_codes(), st.one_of(st.integers(0, 64), st.integers(0, 5000)))
def test_plan_repair_answers_wherever_the_walk_without_bounds_answers(code, budget):
    # The bounds skip whole sizes and the count cut whole branches, each
    # holding no cover, so the plan is the old walk's and no budget that
    # answered there is refused here.
    for failed in range(code.n):
        try:
            plan = walk_plan_repair(code, failed, budget)
        except BudgetExceeded:
            continue
        assert plan_repair(code, failed, budget=budget) == plan


def spread_code(rng, n, theta, rho):
    """Each packet on rho distinct nodes drawn uniformly, redrawn until no
    node is empty."""
    while True:
        storage = [set() for _ in range(n)]
        for packet in range(theta):
            for node in rng.sample(range(n), rho):
                storage[node].add(packet)
        if all(storage):
            return make_code(n, theta, storage)


def least_budget(code, failed):
    """The least budget at which plan_repair answers for failed."""
    low, high = -1, DEFAULT_BUDGET  # refused at low, answers at high
    while high - low > 1:
        middle = (low + high) // 2
        try:
            plan_repair(code, failed, budget=middle)
            high = middle
        except BudgetExceeded:
            low = middle
    return high


def test_the_least_answering_budget_of_a_node_without_forced_helpers():
    # A seeded (30, 90, 3) code like the benchmark's rand_3.json: node 0
    # loses 11 packets, each on two other nodes, so no candidate is
    # forced and eight helpers are needed. The walk without bounds
    # answers from 7,859 steps; the bounds and the count cut leave 1,735.
    code = spread_code(random.Random(3), 30, 90, 3)
    plan = plan_repair(code, 0)
    assert (len(code.packets(0)), plan.repair_degree) == (11, 8)
    assert least_budget(code, 0) == 1735
    assert walk_plan_repair(code, 0, 7859) == plan
    with pytest.raises(BudgetExceeded):
        walk_plan_repair(code, 0, 7858)


@pytest.mark.parametrize("budget", ["2", None, True, 2.0])
def test_plan_repair_refuses_a_budget_that_is_not_an_int(budget):
    # Before any walk, even at a node the planner would refuse.
    code = make_code(2, 2, [{0, 1}, {0}])
    for failed in (1, 0, 2):
        with pytest.raises(InvariantViolation, match=f"^budget={budget!r} is not an integer$"):
            plan_repair(code, failed, budget=budget)


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=8), st.data())
def test_plans_fetch_each_packet_from_its_first_holder(code, data):
    # Over any order of survivors that hold every lost packet.
    failed = data.draw(st.integers(0, code.n - 1), label="failed")
    others = data.draw(st.permutations([i for i in range(code.n) if i != failed]))
    survivors = others[: data.draw(st.integers(0, len(others)), label="kept")]
    lost = set(code.packets(failed))
    if not lost <= {p for h in survivors for p in code.packets(h)}:
        survivors = others
    assume(lost <= {p for h in survivors for p in code.packets(h)})
    plan = _finish_plan(code, failed, survivors)
    assignments, helpers = brute_first_holder_plan(code, failed, survivors)
    assert (plan.assignments, plan.helpers) == (assignments, helpers)
    assert (plan.repair_degree, plan.bandwidth) == (len(helpers), len(lost))


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=8), st.one_of(st.integers(1, 16), st.integers(1, 10**4)))
def test_plan_repair_answers_exactly_or_refuses(code, budget):
    # At every node the plan is the oracle's, or the node is unrepairable,
    # or the walk refuses; a plan found at a budget stands at twice it.
    for failed in range(code.n):
        helpers = brute_lex_least_helpers(code, failed)
        if helpers is None:
            with pytest.raises(Unrepairable):
                plan_repair(code, failed, budget=budget)
            continue
        try:
            plan = plan_repair(code, failed, budget=budget)
        except BudgetExceeded:
            continue
        assert plan.helpers == helpers
        assert plan_repair(code, failed, budget=2 * budget) == plan


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=8))
@example(make_code(3, 4, [[0, 1, 2, 3], [1], [2]]))  # node 0: packets 0, 3 lost
def test_both_planners_refuse_alike(code):
    # The baseline refuses every node plan_repair refuses, with the same
    # error and text; of several packets without a replica, both name
    # the highest.
    for failed in range(-1, code.n + 1):
        refusals = []
        for planner in (plan_repair, plan_repair_greedy):
            try:
                planner(code, failed)
                refusals.append(None)
            except FrcError as exc:
                refusals.append((type(exc), str(exc)))
        assert refusals[0] == refusals[1]


def test_greedy_can_exceed_minimum():
    code = make_code(4, 2, [{0, 1}, {0}, {1}, {0, 1}])
    exact = plan_repair(code, 0)
    greedy = plan_repair_greedy(code, 0)
    assert exact.helpers == (3,)
    assert greedy.helpers == (1, 2)
    assert greedy.repair_degree > exact.repair_degree
    assert greedy.bandwidth == exact.bandwidth == 2


def test_plans_are_valid_assignments():
    rng = random.Random(41)
    for _ in range(25):
        code = random_repairable_code(rng)
        failed = rng.randrange(code.n)
        for plan in (plan_repair(code, failed), plan_repair_greedy(code, failed)):
            lost = code.packets(failed)
            assert tuple(p for p, _ in plan.assignments) == lost
            assert plan.bandwidth == len(lost)
            for packet, helper in plan.assignments:
                assert helper != failed
                assert packet in code.packets(helper)
            assert plan.helpers == tuple(sorted({h for _, h in plan.assignments}))
            assert plan.repair_degree == len(plan.helpers)


def random_replicated_code(rng, max_n=11, max_theta=30):
    """Every packet on exactly rho (2 or 3) nodes: with many packets per
    node, a failed node has many candidate helpers, most of them
    indispensable for some packet."""
    rho = rng.randint(2, 3)
    n = rng.randint(rho, max_n)
    theta = rng.randint(1, max_theta)
    storage = [set() for _ in range(n)]
    for j in range(theta):
        for i in rng.sample(range(n), rho):
            storage[i].add(j)
    return make_code(n, theta, storage)


def test_plan_repair_matches_oracle_minimum():
    rng = random.Random(42)
    codes = [random_repairable_code(rng, max_n=8, max_theta=10) for _ in range(20)]
    codes += [random_replicated_code(rng) for _ in range(20)]
    for code in codes:
        for failed in range(code.n):
            plan = plan_repair(code, failed)
            assert plan.repair_degree == brute_min_helper_count(code, failed)
            assert plan.helpers == brute_lex_least_helpers(code, failed)
            assert plan.repair_degree <= plan_repair_greedy(code, failed).repair_degree


def test_repair_degree_profile_rings():
    for code in (build_ring(RingSpec(5, 5, 2)), build_ring(RingSpec(6, 12, 2))):
        assert [plan_repair(code, i).repair_degree for i in range(code.n)] == [2] * code.n


def test_plan_repair_deterministic():
    code = build_prg(PrgSpec(9, 5))
    plans = [plan_repair(code, 3) for _ in range(3)]
    assert plans[0] == plans[1] == plans[2]
