from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from frcodes import (
    BudgetExceeded,
    KOutOfRange,
    ParityError,
    PrgSpec,
    RhoRange,
    RingSpec,
    TSpec,
    Unreachable,
    build_prg,
    build_ring,
    build_t_code,
    coverage_profile,
    goodness_arithmetic,
    goodness_structural,
    make_code,
    min_coverage,
    predicted_k_ring,
    prg_margin,
    profile,
    reconstruction_degree,
    ring_margin_case1,
    ring_margin_case2,
    weak_form_applies,
)
from oracles import brute_min_coverage, brute_reconstruction_degree


def random_code(rng, max_n=10, max_theta=20):
    n = rng.randint(1, max_n)
    theta = rng.randint(1, max_theta)
    storage = [set() for _ in range(n)]
    for j in range(theta):
        count = rng.randint(1, n)
        for i in rng.sample(range(n), count):
            storage[i].add(j)
    return make_code(n, theta, storage)


# --- min_coverage ----------------------------------------------------------


def test_min_coverage_ring_examples():
    code = build_ring(RingSpec(5, 5, 2))
    assert min_coverage(code, 1) == (2, (0,))
    assert min_coverage(code, 3)[0] == 4
    assert min_coverage(code, 5) == (5, (0, 1, 2, 3, 4))


def test_min_coverage_prg_example():
    code = build_prg(PrgSpec(7, 5))
    value, witness = min_coverage(code, 5)
    assert value == 16
    assert len(witness) == 5


def test_min_coverage_k_range():
    code = build_ring(RingSpec(5, 5, 2))
    with pytest.raises(KOutOfRange):
        min_coverage(code, 0)
    with pytest.raises(KOutOfRange):
        min_coverage(code, 6)


def test_min_coverage_budget():
    code = build_ring(RingSpec(10, 10, 2))
    with pytest.raises(BudgetExceeded):
        min_coverage(code, 5, budget=100)


def test_min_coverage_matches_oracle_randomized():
    rng = random.Random(20250814)
    for _ in range(30):
        code = random_code(rng, max_n=8, max_theta=14)
        for k in range(1, code.n + 1):
            value, witness = min_coverage(code, k)
            oracle_value, oracle_witness = brute_min_coverage(code, k)
            assert value == oracle_value
            assert witness == oracle_witness  # lexicographically least


def test_coverage_profile_monotone_and_bounded():
    rng = random.Random(7)
    for _ in range(20):
        code = random_code(rng, max_n=8, max_theta=14)
        prof = coverage_profile(code)
        alpha = profile(code).alpha
        assert prof.values[-1] == code.theta
        for k in range(1, code.n):
            assert prof.values[k - 1] <= prof.values[k]
            assert prof.values[k] <= prof.values[k - 1] + alpha


# --- reconstruction degree -------------------------------------------------


def test_reconstruction_degree_examples():
    assert reconstruction_degree(build_ring(RingSpec(5, 5, 2)), 4) == 3
    assert reconstruction_degree(build_ring(RingSpec(7, 7, 3)), 6) == 4
    assert reconstruction_degree(build_ring(RingSpec(11, 22, 3)), 21) == 9
    assert reconstruction_degree(build_prg(PrgSpec(7, 5)), 16) == 5


def test_reconstruction_degree_default_file_size():
    code = build_ring(RingSpec(5, 5, 2))
    assert reconstruction_degree(code) == reconstruction_degree(code, 4)


def test_reconstruction_degree_matches_linear_scan():
    rng = random.Random(99)
    for _ in range(15):
        code = random_code(rng, max_n=8, max_theta=12)
        for file_size in range(1, code.theta + 1):
            expected = brute_reconstruction_degree(code, file_size)
            if expected is None:
                with pytest.raises(Unreachable):
                    reconstruction_degree(code, file_size)
            else:
                assert reconstruction_degree(code, file_size) == expected


def test_wide_code_searches_without_recursion():
    code = make_code(1200, 2, [{0, 1}] * 1200)
    assert reconstruction_degree(code) == 1
    assert min_coverage(code, 1200) == (2, tuple(range(1200)))


def test_reconstruction_degree_probes_only_up_to_the_answer():
    # C(30, 15) exceeds the default budget, but the scan stops at k = 1.
    code = make_code(30, 2, [{0, 1}] * 30)
    assert reconstruction_degree(code) == 1
    with pytest.raises(BudgetExceeded):
        min_coverage(code, 15)


def test_reconstruction_degree_unreachable():
    code = build_ring(RingSpec(5, 5, 2))
    with pytest.raises(Unreachable):
        reconstruction_degree(code, 6)
    with pytest.raises(KOutOfRange):
        reconstruction_degree(code, 0)


# --- goodness --------------------------------------------------------------


def test_goodness_arithmetic_weak_prg_point():
    report = goodness_arithmetic(5, 5, 17, weak=True, file_size=16)
    assert report.rhs == 25 - 10 - 1 == 14
    assert report.margin == 2
    assert report.verdict and report.rhs_positive


def test_goodness_arithmetic_strict_ring_point():
    report = goodness_arithmetic(2, 2, 4, weak=False, file_size=3)
    assert report.rhs == 3 and report.margin == 0 and report.verdict


def test_goodness_arithmetic_failing_point():
    report = goodness_arithmetic(6, 2, 7, weak=False, file_size=6)
    assert report.rhs == 12 - 15 == -3
    assert not report.rhs_positive
    assert report.margin == 9 and report.verdict  # negative rhs passes trivially
    failing = goodness_arithmetic(3, 5, 8, weak=False, file_size=7)
    assert failing.rhs == 12 and failing.margin == -5 and not failing.verdict


def test_goodness_structural_uniform_ring_passes():
    report = goodness_structural(build_ring(RingSpec(5, 5, 2)))
    assert report.structural_verdict
    assert not report.weak
    assert report.first_failing_k is None


def test_goodness_structural_counterexample_fails():
    # two identical nodes and a lone packet; irregular replication keeps
    # the check strict, and k=1 already violates M(1) >= alpha
    code = make_code(3, 3, [{0, 1}, {0, 1}, {2}])
    report = goodness_structural(code)
    assert not report.structural_verdict
    assert report.first_failing_k == 1
    assert report.k_evaluated == 1
    assert report.file_size == 1  # M(1), the lone-packet node
    assert not report.weak


def test_goodness_structural_single_node():
    code = make_code(1, 4, [{0, 1, 2, 3}])
    report = goodness_structural(code)
    assert report.structural_verdict


def test_goodness_structural_prg_uses_weak_form():
    code = build_prg(PrgSpec(7, 5))
    report = goodness_structural(code)
    assert report.weak
    assert report.structural_verdict
    # forcing the strict form exposes the deficient node at k=1
    strict = goodness_structural(code, weak=False)
    assert not strict.structural_verdict
    assert strict.first_failing_k == 1


def test_weak_form_applies():
    assert weak_form_applies(build_prg(PrgSpec(9, 5)))
    assert not weak_form_applies(build_ring(RingSpec(5, 5, 2)))
    assert not weak_form_applies(make_code(3, 3, [{0, 1}, {0, 1}, {2}]))


def test_structural_pass_implies_arithmetic_pass_everywhere():
    for code in (
        build_ring(RingSpec(5, 5, 2)),
        build_ring(RingSpec(6, 12, 2)),
        build_t_code(TSpec(7, 3, 1)),
    ):
        report = goodness_structural(code)
        if not report.structural_verdict:
            continue
        alpha = profile(code).alpha
        for k in range(1, min(alpha, code.n) + 1):
            value, _ = min_coverage(code, k)
            point = goodness_arithmetic(
                k, alpha, code.theta, weak=report.weak, file_size=value
            )
            assert point.verdict


# --- closed forms ----------------------------------------------------------


def test_prg_margin_examples():
    assert prg_margin(7, 5) == (3, 2, 17, 2)
    assert prg_margin(5, 3) == (2, 1, 7, 1)
    assert prg_margin(9, 7).margin == 3


def test_prg_margin_nonnegative_and_validated():
    for n in range(5, 26, 2):
        for d in range(3, n - 1, 2):
            result = prg_margin(n, d)
            assert result.margin >= 0
            assert result.theta == (n * d - 1) // 2
    with pytest.raises(ParityError):
        prg_margin(8, 3)


def test_ring_margin_case1_boundaries():
    assert ring_margin_case1(2, 4) == 0
    assert ring_margin_case1(3, 7) == 0
    assert ring_margin_case1(4, 10) == 0


@given(st.integers(2, 50), st.integers(1, 200))
def test_ring_margin_case1_factorization(rho, theta):
    assert ring_margin_case1(rho, theta) == (theta - rho - 1) * (theta - 3 * rho + 2)


@pytest.mark.parametrize("rho,n", [(2, 4), (2, 9), (3, 8), (3, 12), (4, 10), (4, 16)])
def test_ring_margin_case1_is_twice_the_bound_margin(rho, n):
    theta = n
    k = n - rho
    report = goodness_arithmetic(k, rho, theta, weak=False, file_size=theta - 1)
    assert ring_margin_case1(rho, theta) == 2 * report.margin


def test_ring_margin_case2_plugin_value():
    # frozen spot value, evaluated by hand from the polynomial
    assert ring_margin_case2(2, 2, 5) == 124


def test_predicted_k_ring_branches():
    assert predicted_k_ring(5, 5, 2) == (3, "theorem")
    assert predicted_k_ring(6, 12, 2) == (5, "theorem")
    assert predicted_k_ring(9, 20, 3) == (7, "conjecture")
    assert predicted_k_ring(6, 4, 2) == (4, "conjecture")
    with pytest.raises(RhoRange):
        predicted_k_ring(5, 5, 5)


def test_predicted_k_matches_brute_force_on_homogeneous_rings():
    # proven cases only; the sweep range re-checks this at scale
    for n in range(4, 11):
        for rho in (2, 3):
            if rho > n - 1:
                continue
            for m in (1, 2):
                theta = m * n
                code = build_ring(RingSpec(n, theta, rho))
                prediction = predicted_k_ring(n, theta, rho)
                assert prediction.basis == "theorem"
                assert reconstruction_degree(code, theta - 1) == prediction.k
