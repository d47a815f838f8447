from __future__ import annotations

import random

import pytest

from frcodes import (
    BudgetExceeded,
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
from oracles import brute_lex_least_helpers, brute_min_helper_count


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
    # node 0 shares a packet with twenty candidates, each indispensable,
    # so the search would have to reach size twenty
    storage = [set(range(20))] + [{j} for j in range(20)]
    code = make_code(21, 20, storage)
    with pytest.raises(BudgetExceeded):
        plan_repair(code, 0, budget=100)
    assert plan_repair(code, 0).repair_degree == 20


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
