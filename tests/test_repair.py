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
from frcodes.repair import _finish_plan
from oracles import brute_first_holder_plan, brute_lex_least_helpers, brute_min_helper_count
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


def test_plan_repair_budget():
    # Node 0 shares a packet with each of 27 candidates, each
    # indispensable, so the one cover holds all 27 and takes no walk.
    code = make_code(28, 27, [set(range(27))] + [{j} for j in range(27)])
    assert plan_repair(code, 0, budget=0).repair_degree == 27
    assert plan_repair(code, 0, budget=0) == plan_repair_greedy(code, 0)
    # A 28th candidate that also holds packet 0 leaves 26 forced, so the
    # walk tries sizes 26 and 27, paying for every candidate of each
    # level it opens, before the cover of 27 at size 27.
    code = make_code(29, 27, [set(range(27))] + [{j} for j in range(27)] + [{0}])
    plan = plan_repair(code, 0, budget=177)
    assert plan.helpers == tuple(range(1, 28))
    message = "^helper-set search for node 0 exceeds budget of 176 steps$"
    with pytest.raises(BudgetExceeded, match=message):
        plan_repair(code, 0, budget=176)
    # Node 0 holds the vertices of K_12 and each other node one edge: a
    # cover needs six helpers, and the walk over fewer runs away.
    edges = [set(edge) for edge in combinations(range(12), 2)]
    with pytest.raises(BudgetExceeded, match="^helper-set search for node 0 "):
        plan_repair(make_code(67, 12, [range(12), *edges]), 0, budget=10**4)


def test_plan_repair_starts_at_the_forced_helpers():
    # On prg codes every lost packet has one other replica, so all c
    # candidates are forced and the plan takes no walk.
    code = build_prg(PrgSpec(21, 17))
    for failed in range(code.n):
        c = 17 if failed < 20 else 16  # node 20 has one edge fewer
        assert plan_repair(code, failed, budget=0).repair_degree == c
    # Nodes 2, 4 and 6 alone hold packets 0, 1 and 2, but packets 3..5
    # still need two of nodes 1, 3 and 5. The walk starts at size 3 and
    # skips the 9 steps that size 2 would pay.
    code = make_code(7, 6, [range(6), {3, 4}, {0}, {4, 5}, {1}, {5, 3}, {2}])
    plan = plan_repair(code, 0, budget=39)
    assert plan.helpers == brute_lex_least_helpers(code, 0) == (1, 2, 3, 4, 6)
    with pytest.raises(BudgetExceeded):
        plan_repair(code, 0, budget=38)


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
