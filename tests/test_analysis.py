from __future__ import annotations

import inspect
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from frcodes import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    InvariantViolation,
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
    goodness_rhs,
    goodness_structural,
    make_code,
    min_coverage,
    predicted_k_ring,
    prg_margin,
    profile,
    reconstruction_degree,
    ring_margin_case1,
    single_deficit_shape,
)
from frcodes import analysis
from frcodes.analysis import (
    _SLICE_BITS,
    _arc_dp_charge,
    _arc_order,
    _decoded,
    _most_missed,
    _nodes,
    _profile_kernel,
    _slice_constants,
    _smaller_unions,
    _subset_table,
    _sum_bits,
    _table_charge,
    _unranked,
)
from frcodes.core import FrCode
from frcodes.sweep import conjecture_harness, default_theta_rule, sweep_ring
from oracles import (
    brute_holders,
    brute_min_coverage,
    brute_reconstruction_degree,
    brute_rotation_invariant,
    brute_structural_goodness,
    every_unit_arc_order,
)
from strategies import small_codes


def random_code(rng, max_n=10, max_theta=20):
    n = rng.randint(1, max_n)
    theta = rng.randint(1, max_theta)
    storage = [set() for _ in range(n)]
    for j in range(theta):
        count = rng.randint(1, n)
        for i in rng.sample(range(n), count):
            storage[i].add(j)
    return make_code(n, theta, storage)


def disjoint_pairs(n, extra=()):
    """Node i holds packets 2i and 2i + 1, so any k nodes hold 2k and no
    walk cuts a branch before its last pick: min_coverage runs away at
    k near n / 2. Each node in extra gets one more packet of its own."""
    storage = [{2 * i, 2 * i + 1} for i in range(n)]
    for j, i in enumerate(extra, start=2 * n):
        storage[i].add(j)
    return make_code(n, 2 * n + len(extra), storage)


def circulant_code(n, bases, extra=()):
    """Base set b contributes n packets, packet s of them on the nodes
    (x + s) mod n for x in b, so node rotation maps the code onto
    itself. Each node in extra then gets one more packet of its own,
    which breaks the symmetry."""
    storage = [set() for _ in range(n)]
    for r, base in enumerate(bases):
        for s in range(n):
            for x in base:
                storage[(x + s) % n].add(r * n + s)
    theta = len(bases) * n
    for i in extra:
        storage[i].add(theta)
        theta += 1
    return make_code(n, theta, storage)


def random_circulant(rng, max_n=10, max_bases=2):
    n = rng.randint(1, max_n)
    bases = [
        rng.sample(range(n), rng.randint(1, n))
        for _ in range(rng.randint(1, max_bases))
    ]
    return n, bases


def swap_nodes(code, a, b):
    """The same packet sets with nodes a and b exchanged: node sizes stay
    equal, but rotation no longer maps the code onto itself."""
    masks = list(code.masks)
    masks[a], masks[b] = masks[b], masks[a]
    return FrCode(n=code.n, theta=code.theta, masks=tuple(masks))


def seeded(code, symmetric):
    """An equal code whose cached rotation_invariant is seeded as
    symmetric."""
    copy = FrCode(n=code.n, theta=code.theta, masks=code.masks)
    copy.__dict__["rotation_invariant"] = symmetric
    return copy


def seeded_walk(code, k, bound, budget, symmetric):
    """_smaller_unions on seeded(code, symmetric): True walks only the
    rotation representatives, False every subset."""
    return _smaller_unions(seeded(code, symmetric), k, bound, budget)


#: The transpose is also searched directly at each file size whose walk
#: has at most this many subsets: every file size when theta <= 15.
DUAL_CHECK_SUBSETS = 10**4


def assert_matches_oracles(code, ks=None, file_sizes=None):
    """min_coverage (value and witness) and reconstruction_degree agree
    with the brute-force oracles at every k and file size asked for, and
    so does n - u + 1 read off the transpose (u its min_coverage at
    t = theta - file_size + 1) where that walk is small."""
    for k in ks or range(1, code.n + 1):
        assert min_coverage(code, k) == brute_min_coverage(code, k), k
    for file_size in file_sizes or range(1, code.theta + 1):
        expected = brute_reconstruction_degree(code, file_size)
        if expected is None:
            with pytest.raises(Unreachable):
                reconstruction_degree(code, file_size)
        else:
            assert reconstruction_degree(code, file_size) == expected, file_size
            t = code.theta - file_size + 1
            if math.comb(code.theta, t) <= DUAL_CHECK_SUBSETS:
                u, _ = min_coverage(code.transpose, t)
                assert code.n - u + 1 == expected, file_size


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
    # The budget counts steps: each candidate tried below the first
    # position. With no branch cut, the plain walk tries every prefix of
    # j = 2..k nodes that can still be completed, C(n - k + j, j) of
    # each size, C(n + 1, k) - (n - k + 2) in all.
    code = disjoint_pairs(10)
    steps = math.comb(11, 5) - 7
    walk = seeded_walk(code, 5, code.theta + 1, steps, False)
    assert list(walk)[-1] == (10, (0, 1, 2, 3, 4))
    message = f"^search at k=5 exceeds budget of {steps - 1} steps$"
    with pytest.raises(BudgetExceeded, match=message):
        list(seeded_walk(code, 5, code.theta + 1, steps - 1, False))
    # On 34 pairs, k = 17 would walk C(34, 16) prefixes.
    with pytest.raises(BudgetExceeded, match="^search at k=17 "):
        min_coverage(disjoint_pairs(34), 17, budget=10**4)


def test_the_budget_counts_steps_not_subsets():
    # C(30, 15) is 155 million, but the symmetric walk needs 239,587
    # steps, so the default budget answers.
    code = build_ring(RingSpec(30, 30, 3))
    prof = coverage_profile(code)
    assert min_coverage(code, 15) == (prof.values[14], prof.witnesses[14])
    assert min_coverage(code, 15, budget=239_587) == min_coverage(code, 15)
    with pytest.raises(BudgetExceeded, match="^search at k=15 exceeds budget of 239586 "):
        min_coverage(code, 15, budget=239_586)


def test_the_budget_counts_leaf_checks():
    # A descent pays for every candidate of the level it opens, so the
    # leaves count too: at k = 2 the plain walk on 100 pairs descends
    # only 99 times but tries all C(100, 2) = 4,950 pairs.
    code = disjoint_pairs(100)
    walk = seeded_walk(code, 2, code.theta + 1, 4950, False)
    assert list(walk)[-1] == (4, (0, 1))
    with pytest.raises(BudgetExceeded, match="^search at k=2 exceeds budget of 4949 steps$"):
        list(seeded_walk(code, 2, code.theta + 1, 4949, False))


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


# --- coverage profile on arc codes -----------------------------------------


def arc_code(n, arcs, unit=1):
    """Packet j held by the cyclic arc arcs[j] = (start, length) of
    nodes, each node x then relabeled to unit * x mod n."""
    storage = [set() for _ in range(n)]
    for j, (start, length) in enumerate(arcs):
        for x in range(start, start + length):
            storage[unit * x % n].add(j)
    return make_code(n, len(arcs), storage)


def assert_profile_matches_oracle(code):
    # The chooser sends most small arc codes with no rotation symmetry to
    # the subset table, so the arc DP is checked on its own as well.
    prof = coverage_profile(code)
    expected = [brute_min_coverage(code, k) for k in range(1, code.n + 1)]
    assert list(zip(prof.values, prof.witnesses)) == expected
    assert _most_missed(code, _arc_order(code)) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arc_profile_matches_oracle(data):
    # Mixed lengths up to the full cycle, repeated arcs, nodes on no arc
    # and n > theta, with the nodes relabeled by a random unit mod n.
    n = data.draw(st.integers(1, 9), label="n")
    arc = st.tuples(st.integers(0, n - 1), st.integers(1, n))
    arcs = data.draw(st.lists(arc, min_size=1, max_size=12), label="arcs")
    if data.draw(st.booleans(), label="repeat"):
        arcs.append(arcs[0])
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    code = arc_code(n, arcs, data.draw(st.sampled_from(units), label="unit"))
    assert _arc_order(code) is not None
    assert_profile_matches_oracle(code)


def test_arc_profile_matches_oracle_on_every_small_cycle():
    for n in range(1, 4):
        arcs = sorted({(s, length) for s in range(n) for length in range(1, n)} | {(0, n)})
        for size in range(1, 4):
            for chosen in itertools.combinations_with_replacement(arcs, size):
                assert_profile_matches_oracle(arc_code(n, chosen))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arc_order_matches_the_scan_of_every_unit(data):
    # Arc codes under a random unit, some with one more holder set that
    # is seldom an arc, and small codes with no structure.
    if data.draw(st.booleans(), label="arcs"):
        n = data.draw(st.integers(1, 30), label="n")
        arc = st.tuples(st.integers(0, n - 1), st.integers(1, n))
        arcs = data.draw(st.lists(arc, min_size=1, max_size=12), label="arcs")
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        code = arc_code(n, arcs, data.draw(st.sampled_from(units), label="unit"))
        extra = data.draw(st.sets(st.integers(0, n - 1)), label="extra holders")
        if extra:  # one more packet, on the extra holders
            storage = [set(code.packets(i)) for i in range(n)]
            for i in extra:
                storage[i].add(code.theta)
            code = make_code(n, code.theta + 1, storage)
    else:
        code = data.draw(small_codes(), label="code")
    assert _arc_order(code) == every_unit_arc_order(code)


def test_arc_order_matches_the_scan_of_every_unit_on_t_codes():
    # Most t codes are arcs only under a unit other than 1.
    for n in range(2, 21):
        for d in range(2, n + 1):
            for t in range(n):
                if n // math.gcd(t + 1, n) >= d:
                    code = build_t_code(TSpec(n, d, t))
                    assert _arc_order(code) == every_unit_arc_order(code), code


def one_pair_code(n):
    """n one-node packets and one packet on nodes 0 and n/2 - 1: only
    the units s = n/2 - 1 and n/2 + 1 bring that pair next to each
    other, so only they can make it an arc."""
    return make_code(n, n + 1, [[i, n] if i in (0, n // 2 - 1) else [i] for i in range(n)])


def set_tests_by_unit(monkeypatch, n):
    """Count the holder-set tests of _arc_order by unit: each test
    rotates one set by d = 1/s mod n."""
    tests = Counter()
    rotate = analysis._rotate

    def counted(mask, r, width):
        tests[pow(r, -1, n)] += 1
        return rotate(mask, r, width)

    monkeypatch.setattr(analysis, "_rotate", counted)
    return tests


def test_arc_detection_fully_scans_only_the_units_that_can_work(monkeypatch):
    # The scan of every unit tried the 255 units below 511 first, each
    # over all n + 1 holder sets; now only 511 tests more than its
    # picked set.
    assert _arc_order(one_pair_code(64)) == every_unit_arc_order(one_pair_code(64))
    tests = set_tests_by_unit(monkeypatch, 1024)
    assert _arc_order(one_pair_code(1024))[0] == 511
    assert [s for s, count in tests.items() if count > 1] == [511]
    with pytest.raises(BudgetExceeded, match="^search at k=2 exceeds budget of 1 steps$"):
        coverage_profile(one_pair_code(2048), budget=1)


def test_arc_detection_checks_the_picked_set_before_a_full_scan(monkeypatch):
    # n one-node packets and one packet on the even nodes: the pair
    # filter passes nearly every odd unit, and each used to scan every
    # holder set (512 scans at n = 1,024). Under any unit the even nodes
    # are no run of n/2 nodes, so each unit tests that set alone.
    code = make_code(1024, 1025, [[i, 1024] if i % 2 == 0 else [i] for i in range(1024)])
    tests = set_tests_by_unit(monkeypatch, 1024)
    assert _arc_order(code) is None
    assert tests and set(tests.values()) == {1}
    with pytest.raises(BudgetExceeded, match="^search at k=2 exceeds budget of 1 steps$"):
        coverage_profile(code, budget=1)


def test_arc_detection_refuses_a_picked_set_of_two_runs(monkeypatch):
    # One packet on nodes 0, 1, n/2 and n/2 + 1: the pair filter passes
    # the units 1, 3, n - 3 and n - 1, and under each the set is two
    # runs of two nodes, so no unit tests more than that set.
    n = 1024
    code = make_code(n, n + 1, [[i, n] if i % (n // 2) < 2 else [i] for i in range(n)])
    tests = set_tests_by_unit(monkeypatch, n)
    assert _arc_order(code) is None
    assert tests == {1: 1, 3: 1, n - 3: 1, n - 1: 1}


@pytest.mark.parametrize(
    "code",
    [
        build_prg(PrgSpec(7, 3)),
        build_t_code(TSpec(12, 3, 2)),  # gcd(3, 12) = 3: no unit makes arcs
        swap_nodes(build_ring(RingSpec(9, 9, 3)), 0, 4),
    ],
)
def test_codes_without_an_arc_order_keep_the_per_k_profile(code):
    assert _arc_order(code) is None
    prof = coverage_profile(code)
    per_k = [min_coverage(code, k) for k in range(1, code.n + 1)]
    assert list(zip(prof.values, prof.witnesses)) == per_k


@pytest.mark.parametrize(
    "code",
    [build_ring(RingSpec(22, 22, 3)), build_t_code(TSpec(13, 3, 1))],
)
def test_arc_dp_engages_on_ring_and_t_codes(code):
    # The DP gives every witness, so no walk reads masks: the one read is
    # the symmetry check's, against 110,858 reads of the per-k walks on
    # the ring and 919 on the t code (relabeled by a unit).
    prof, reads = count_reads(code, coverage_profile)
    per_k, loop_reads = count_reads(
        code, lambda c: [min_coverage(c, k) for k in range(1, c.n + 1)]
    )
    assert list(zip(prof.values, prof.witnesses)) == per_k
    assert reads == 1 and loop_reads > 900


def test_arc_dp_single_cut_matches_every_cut_on_invariant_codes():
    # Above the oracles' reach: the one cut at node 0 that the arc DP
    # takes on a rotation-invariant code gives the values and witnesses
    # that all n cuts give, on ring codes in label order and on t codes
    # relabeled by a unit.
    codes = [
        build_ring(RingSpec(n, m * n, rho))
        for n in range(11, 27)
        for m in (1, 2, 3)
        for rho in (2, 3, 4)
    ]
    codes += [
        build_t_code(TSpec(n, d, t))
        for n in range(11, 27)
        for t in (1, 2, 3)
        for d in (2, 3, 4)
        if math.gcd(t + 1, n) == 1
    ]
    for code in codes:
        order = _arc_order(code)
        assert code.rotation_invariant and order is not None
        one_cut = _most_missed(code, order)
        assert one_cut == _most_missed(seeded(code, False), order), code


def test_coverage_profile_refuses_as_the_per_k_loop_does():
    # Below the arc DP's charge the loop runs and refuses where it would
    # alone; at the charge the DP answers with every witness.
    for code, charge, refused_k in (
        # One cut of 20 offsets: 19 * 20 * 21 / 6 row entries.
        (disjoint_pairs(20), 1330, 5),
        # Not rotation invariant: cuts of 1..20 offsets, C(22, 4) in all.
        (disjoint_pairs(20, extra=[19]), 7315, 5),
    ):
        message = f"^search at k={refused_k} exceeds budget of {charge - 1} steps$"
        with pytest.raises(BudgetExceeded, match=message):
            [min_coverage(code, k, budget=charge - 1) for k in range(1, code.n + 1)]
        with pytest.raises(BudgetExceeded, match=message):
            coverage_profile(code, budget=charge - 1)
        # No kernel fits one step below the DP's charge; at it, only the
        # DP does (the table's 2^20 / 64 = 16,384 does not).
        order = _arc_order(code)
        assert _arc_dp_charge(code, order) == charge
        assert _profile_kernel(code, charge - 1) is None
        assert _profile_kernel(code, charge).func is _most_missed
        prof = coverage_profile(code, budget=charge)
        assert prof.values == tuple(range(2, 39, 2)) + (code.theta,)
        assert prof.witnesses == tuple(tuple(range(k)) for k in range(1, 21))
        assert list(zip(prof.values, prof.witnesses)) == _most_missed(code, order)


def test_the_arc_dp_answers_every_witness_at_its_charge():
    # With the extra packet on node 0 the lex-least witnesses avoid it. A
    # first-hit walk at M(k) would try node 0's subtree first, and needed
    # 184,845 steps at k = 11; the DP's key gives each witness within
    # its own charge of C(22, 4) = 7,315. One step below, the DP
    # declines and the per-k loop refuses as it would alone.
    code = disjoint_pairs(20, extra=[0])
    prof = coverage_profile(code, budget=7315)
    assert prof.values == tuple(range(2, 39, 2)) + (code.theta,)
    assert prof.witnesses == tuple(tuple(range(1, k + 1)) for k in range(1, 20)) + (
        tuple(range(20)),
    )
    assert _arc_dp_charge(code, _arc_order(code)) == 7315
    assert _profile_kernel(code, 7314) is None
    with pytest.raises(BudgetExceeded, match="^search at k=5 exceeds budget of 7314 steps$"):
        coverage_profile(code, budget=7314)


def test_the_arc_dp_memory_stays_under_one_mib():
    """ring(40,60,4) has no rotation symmetry, so the DP runs all 40
    cuts; its traced peak is about 74 KiB. Its memory is still not
    charged: gaps keeps about m^2 keys of about n bits, so at n = 4,096
    one cut would hold some 16.8M keys, though only a budget of at least
    C(4097, 3) lets it start."""
    code = build_ring(RingSpec(40, 60, 4))
    order = _arc_order(code)
    assert order is not None and not code.rotation_invariant
    tracemalloc.start()
    try:
        _most_missed(code, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- the profile kernel chooser ----------------------------------------------

#: The kernel coverage_profile runs at the default budget: on an arc code
#: with no rotation symmetry, the table where its charge times theta at
#: 1.2 ns weighs less than the DP's at 270 ns per row entry, else the DP;
#: the table on every other code with no symmetry. The DP's row entries
#: against the table's packet-words, (2^n / 64) * theta, are 3,060 against
#: 24,576 at ring(16,24,3), 7,315 against 491,520 at ring(20,30,3), 10,626
#: against 2,162,688 at ring(22,33,3) (2.87 against 2.60 ms weighted) and
#: 14,950 against 9,437,184 and 10,485,760 at ring(24,36,3) and
#: ring(24,40,4).
PROFILE_ROUTES = {
    RingSpec(16, 24, 3): _subset_table,
    RingSpec(20, 30, 3): _subset_table,
    RingSpec(22, 33, 3): _subset_table,
    RingSpec(24, 40, 4): _most_missed,
    RingSpec(24, 36, 3): _most_missed,
    RingSpec(20, 20, 3): _most_missed,
    RingSpec(22, 22, 3): _most_missed,
    RingSpec(23, 23, 2): _most_missed,
    RingSpec(26, 26, 4): _most_missed,
    TSpec(22, 4, 2): _most_missed,
    TSpec(25, 4, 1): _most_missed,
    TSpec(26, 4, 2): _most_missed,
    PrgSpec(19, 7): _subset_table,
    PrgSpec(21, 5): _subset_table,
    PrgSpec(25, 7): _subset_table,
}


def built(spec):
    return {RingSpec: build_ring, TSpec: build_t_code, PrgSpec: build_prg}[type(spec)](spec)


def ran_kernels(monkeypatch):
    """The kernel of every _most_missed and _subset_table call from here
    on, in order."""
    ran = []
    for kernel in (_most_missed, _subset_table):
        monkeypatch.setattr(
            analysis, kernel.__name__, lambda *args, kernel=kernel: ran.append(kernel) or kernel(*args)
        )
    return ran


@pytest.mark.parametrize("spec", list(PROFILE_ROUTES), ids=str)
def test_the_chooser_runs_the_kernel_of_least_weighted_charge(spec, monkeypatch):
    # Among them the seven fixed codes of perfbench's deep_coverage.
    code = built(spec)
    assert _profile_kernel(code, DEFAULT_BUDGET).func is PROFILE_ROUTES[spec]
    if code.n <= 20:
        ran = ran_kernels(monkeypatch)
        monkeypatch.setattr(analysis, "_smaller_unions", forbidden)
        coverage_profile(code)
        assert ran == [PROFILE_ROUTES[spec]]


def test_the_chooser_keeps_the_walks_of_the_random_n30_code():
    # The table's charge, 2^30 / 64 = 16,777,216, passes the default
    # budget: fit is each charge against the budget, unweighted, so the
    # code keeps its per-k walks (pinned as a choice, not run).
    code = spread_code(5, 30, 90, 3)  # perfbench's random_code, seeded 5
    assert _arc_order(code) is None and not code.rotation_invariant
    assert _table_charge(code) == 16777216 > DEFAULT_BUDGET
    assert _profile_kernel(code, DEFAULT_BUDGET) is None


def test_an_arc_code_the_dp_declines_tries_the_table_before_the_walks(monkeypatch):
    # Between the table's charge, 2^18 / 64 = 4,096, and the DP's,
    # C(20, 4) = 4,845, only the table fits. The per-k walks refused
    # these budgets at k = 5; now the table answers with the DP's values
    # and witnesses.
    code = disjoint_pairs(18, extra=[17])
    order = _arc_order(code)
    assert (_table_charge(code), _arc_dp_charge(code, order)) == (4096, 4845)
    with pytest.raises(BudgetExceeded, match="^search at k=5 exceeds budget of 4095 steps$"):
        coverage_profile(code, budget=4095)
    ran = ran_kernels(monkeypatch)
    for budget in (4096, 4844):
        prof = coverage_profile(code, budget=budget)
        assert list(zip(prof.values, prof.witnesses)) == _most_missed(code, order)
    assert ran == [_subset_table] * 2


def unit_relabeled(code, unit):
    """code with each node i relabeled unit * i mod n."""
    storage = [()] * code.n
    for i in range(code.n):
        storage[unit * i % code.n] = code.packets(i)
    return make_code(code.n, code.theta, storage)


@st.composite
def small_arc_codes(draw):
    """Arc codes with n <= 14 under a random unit relabeling: ring codes, t
    codes, arc placements drawn at random, and circulant ones (every
    length at every start), which rotation maps onto themselves."""
    n = draw(st.integers(3, 14), label="n")
    kind = draw(st.sampled_from(["ring", "t", "arcs", "circulant"]), label="kind")
    if kind == "ring":
        code = build_ring(RingSpec(n, draw(st.integers(1, 3 * n)), draw(st.integers(2, n - 1))))
    elif kind == "t":
        t = draw(st.sampled_from([t for t in range(n) if math.gcd(t + 1, n) == 1]), label="t")
        code = build_t_code(TSpec(n, draw(st.integers(2, n), label="d"), t))
    elif kind == "arcs":
        arc = st.tuples(st.integers(0, n - 1), st.integers(1, n))
        code = arc_code(n, draw(st.lists(arc, min_size=1, max_size=3 * n), label="arcs"))
    else:
        lengths = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3), label="lengths")
        code = arc_code(n, [(start, length) for length in lengths for start in range(n)])
        assert code.rotation_invariant
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    return unit_relabeled(code, draw(st.sampled_from(units), label="unit"))


@settings(max_examples=200, deadline=None)
@given(small_arc_codes())
def test_the_arc_dp_matches_the_subset_table(code):
    order = _arc_order(code)
    assert order is not None
    assert _most_missed(code, order) == _subset_table(code)


# --- coverage profile from the subset table --------------------------------


def spread_code(seed, n, theta, rho):
    """Each packet on rho distinct nodes drawn uniformly, redrawn until no
    node is empty: no arc order and no rotation symmetry in general."""
    rng = random.Random(seed)
    while True:
        storage = [set() for _ in range(n)]
        for packet in range(theta):
            for node in rng.sample(range(n), rho):
                storage[node].add(packet)
        if all(storage):
            return make_code(n, theta, storage)


#: A line of _subset_table that runs only on each path named: a slice
#: adding its hit tied packets' complements onto whole, one adding its
#: unhit ones onto base, and a k whose floor skips its scan.
TABLE_PATHS = {
    "hit form": "counter = _sum_bits(whole,",
    "unhit form": "offset += len(hit)",
    "floor skip": "continue",
}


@contextmanager
def lines_run(function, counts, markers):
    """Count in counts[name], while the block runs, each run of the one
    line of function's source that holds markers[name]."""
    lines, first = inspect.getsourcelines(function)
    at = {}
    for name, marker in markers.items():
        (number,) = [first + i for i, line in enumerate(lines) if marker in line]
        at[number] = name
    code = function.__code__

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in at:
            counts[at[frame.f_lineno]] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield
    finally:
        sys.settrace(previous)


def test_subset_table_matches_oracle():
    # Empty nodes, a repeated node set, n > theta, one-packet codes and
    # packets on every node; slices as narrow as one free node.
    ran = Counter()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def matches(data):
        code = data.draw(small_codes(), label="code")
        expected = [brute_min_coverage(code, k) for k in range(1, code.n + 1)]
        bits = data.draw(st.sampled_from([1, 2, 3, 4, 5, _SLICE_BITS]), label="slice bits")
        with mock.patch.object(analysis, "_SLICE_BITS", bits), lines_run(
            _subset_table, ran, TABLE_PATHS
        ):
            assert _subset_table(code) == expected

    matches()
    # The oracle checks every path of the table.
    assert set(ran) == set(TABLE_PATHS), ran


@pytest.mark.parametrize("n", [_SLICE_BITS - 1, _SLICE_BITS, _SLICE_BITS + 1, _SLICE_BITS + 3])
def test_subset_table_matches_the_per_k_walk_across_slices(n):
    ran = Counter()
    for code in (spread_code(n, n, 2 * n, 3), spread_code(n, n, n + 3, 2)):
        per_k = [min_coverage(code, k) for k in range(1, n + 1)]
        with lines_run(_subset_table, ran, TABLE_PATHS):
            assert _subset_table(code) == per_k
    # One slice fixes no node, so no packet is hit and base takes them
    # all; and it scans each k first, below no best to skip at.
    paths = set(TABLE_PATHS) if n > _SLICE_BITS else {"unhit form"}
    assert set(ran) == paths, ran


def forbidden(*args, **kwargs):
    raise AssertionError("this search must not run")


@pytest.mark.parametrize(
    "code", [build_prg(PrgSpec(17, 3)), spread_code(18, 18, 36, 3)], ids=["prg", "spread"]
)
def test_subset_table_answers_codes_with_no_arc_order_and_no_symmetry(code, monkeypatch):
    assert _arc_order(code) is None and not code.rotation_invariant
    per_k = [min_coverage(code, k) for k in range(1, code.n + 1)]
    monkeypatch.setattr(analysis, "_smaller_unions", forbidden)
    prof = coverage_profile(code)
    assert list(zip(prof.values, prof.witnesses)) == per_k


def test_invariant_codes_with_no_arc_order_keep_the_symmetric_walk(monkeypatch):
    # gcd(3, 24) = 3, so no unit makes the holder sets arcs.
    code = build_t_code(TSpec(24, 4, 2))
    assert _arc_order(code) is None and code.rotation_invariant
    per_k = [min_coverage(code, k) for k in range(1, code.n + 1)]
    monkeypatch.setattr(analysis, "_subset_table", forbidden)
    prof = coverage_profile(code)
    assert list(zip(prof.values, prof.witnesses)) == per_k


def test_subset_table_keeps_the_refusals_of_the_per_k_loop():
    # The table on prg(19, 7) is charged 2^19 / 64 = 8192. Below that the
    # loop runs and refuses at k = 6, whose walk takes 12,748 steps.
    code = build_prg(PrgSpec(19, 7))
    message = "^search at k=6 exceeds budget of 8191 steps$"
    with pytest.raises(BudgetExceeded, match=message):
        [min_coverage(code, k, budget=8191) for k in range(1, code.n + 1)]
    with pytest.raises(BudgetExceeded, match=message):
        coverage_profile(code, budget=8191)
    # No kernel fits one step below the table's charge; at it, the table.
    assert _table_charge(code) == 8192
    assert _profile_kernel(code, 8191) is None
    assert _profile_kernel(code, 8192).func is _subset_table
    per_k = [min_coverage(code, k) for k in range(1, code.n + 1)]
    prof = coverage_profile(code, budget=8192)
    assert list(zip(prof.values, prof.witnesses)) == per_k == _subset_table(code)


def test_carry_save_sum_counts_every_position():
    # An empty counter, no indicators, and carries past the top weight.
    assert _sum_bits([], iter([])) == []
    assert _sum_bits([5, 3], iter([])) == [5, 3]
    assert _sum_bits([1], iter([1, 1, 1])) == [0, 0, 1]
    assert _sum_bits([], iter([7] * 9)) == [7, 0, 0, 7]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_carry_save_sum_matches_each_positions_integer_count(data):
    width = data.draw(st.integers(1, 80), label="positions")
    word = st.integers(0, (1 << width) - 1)
    counter = data.draw(st.lists(word, max_size=5), label="counter")
    indicators = data.draw(st.lists(word, max_size=40), label="indicators")
    kept = list(counter)
    total = _sum_bits(counter, iter(indicators))
    assert counter == kept  # the base counter is shared by every slice

    def count(planes, p):
        return sum((bit >> p & 1) << b for b, bit in enumerate(planes))

    for p in range(width):
        assert count(total, p) == count(counter, p) + sum(x >> p & 1 for x in indicators)


@pytest.mark.parametrize("f", [*range(9), 16])
def test_slice_layout_groups_positions_by_popcount_class(f):
    columns, classes = _slice_constants(f)
    size = 1 << f
    # The classes partition the positions, the smallest classes lowest.
    assert sum(members.bit_count() for members in classes) == size
    assert reduce(or_, classes) == (1 << size) - 1
    lowest = sorted(range(f + 1), key=lambda j: classes[j] & -classes[j])
    sizes = [math.comb(f, j) for j in lowest]
    assert sizes == sorted(sizes)
    # p at each position, read off the columns.
    bits = [format(column, f"0{size}b")[::-1] for column in columns]
    p_at = [sum(1 << b for b in range(f) if bits[b][q] == "1") for q in range(size)]
    for j, members in enumerate(classes):
        positions = [q for q, bit in enumerate(format(members, f"0{size}b")[::-1]) if bit == "1"]
        ps = [p_at[q] for q in positions]
        assert len(ps) == math.comb(f, j)
        assert ps == sorted(ps) and all(p.bit_count() == j for p in ps)
        # _unranked gives the nodes of the member with `above` members
        # above it, node f - 1 - b for each bit b of its p.
        nodes = [_unranked(f, j, len(ps) - 1 - i, 0) for i in range(len(ps))]
        assert ps == [sum(1 << f - 1 - node for node in each) for each in nodes]
        # Past `first` fixed nodes, each node moves up by first.
        assert _unranked(f, j, 0, 5) == [5 + node for node in nodes[-1]]


def test_slice_scan_spans_a_fifth_of_the_full_width():
    # An AND of a class with a counter bit runs over the class's highest
    # position, so a scan of all 17 classes at f = 16 touches 245,123
    # bits, against 17 * 2^16 = 1,114,112 with each class spread out.
    _, classes = _slice_constants(16)
    assert sum(members.bit_length() for members in classes) == 245123


def test_subset_table_memory_stays_under_one_mib():
    code = build_prg(PrgSpec(21, 5))
    tracemalloc.start()
    try:
        coverage_profile(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_subset_table_memory_stays_under_one_mib_at_wide_theta():
    # 1,024 packets over four slices: an 8 KiB indicator kept per packet
    # from one slice to the next would hold 8 MiB. The table keeps its
    # two base sums, one slice's sum and its complement.
    code = spread_code(3, 18, 1024, 2)
    assert not code.rotation_invariant and code.n - _SLICE_BITS == 2
    _slice_constants(_SLICE_BITS)  # built once per width, outside the peak
    tracemalloc.start()
    try:
        _subset_table(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nodes_match_the_per_node_loop(data):
    n = data.draw(st.integers(1, 300), label="n")
    s = data.draw(st.integers(0, (1 << n) - 1), label="s")
    subsets = [0, s, (1 << n) - 1]
    for subset in subsets:
        assert _nodes(n, subset) == [i for i in range(n) if subset >> n - 1 - i & 1]
    assert _decoded(n, [(7, subset) for subset in subsets]) == [
        (7, tuple(_nodes(n, subset))) for subset in subsets
    ]


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
    # min_coverage at k = 17 runs away on 34 disjoint pairs, but at M = 4
    # the scan stops at k = 2.
    code = disjoint_pairs(34)
    assert reconstruction_degree(code, 4, budget=100) == 2
    with pytest.raises(BudgetExceeded, match="^search at k=17 "):
        min_coverage(code, 17, budget=100)


def test_reconstruction_degree_answers_from_the_cheaper_side():
    # Four packets, each on its own 15 of 60 nodes. At M = 3 the scan
    # would have to show that no 31 nodes lie within two packets' holders,
    # which runs away; the transpose at t = 2 has C(4, 2) = 6 pairs.
    code = make_code(60, 4, [{i // 15} for i in range(60)])
    with pytest.raises(BudgetExceeded, match="^search at k=31 "):
        for k in range(1, code.n + 1):
            next(seeded_walk(code, k, 3, 10**4, False), None)
    assert reconstruction_degree(code, 3, budget=10**4) == 31
    assert reconstruction_degree(build_ring(RingSpec(30, 30, 3))) == 27
    assert reconstruction_degree(build_t_code(TSpec(26, 4, 2))) == 22


def counted_walks(monkeypatch):
    """The k of every _smaller_unions call from here on, in order."""
    walked = []
    walk = analysis._smaller_unions

    def counting(code, k, *args):
        walked.append(k)
        return walk(code, k, *args)

    monkeypatch.setattr(analysis, "_smaller_unions", counting)
    return walked


def test_reconstruction_degree_reads_a_shared_least_holder_set_without_a_walk(monkeypatch):
    # On ring(24, 24m, 4) packets j, j + 24, .. share one window of 4
    # nodes, m of them, so at m >= 2 the t = 2 packets of M = theta - 1
    # lie on 4 nodes: u = 4 with no walk, at any budget. ring(24, 24, 4)
    # has no shared window. Its first pair spans 5 nodes, which brackets
    # u = 5 with no walk either; with packets relabeled j -> 5j mod 24
    # the first pair is old packets 0 and 5, on 8 nodes, and it walks.
    walked = counted_walks(monkeypatch)
    for theta in (48, 72):
        shared = build_ring(RingSpec(24, theta, 4))
        assert reconstruction_degree(shared, theta - 1, budget=1) == 24 - 4 + 1
    assert walked == []
    distinct = build_ring(RingSpec(24, 24, 4))
    u, _ = min_coverage(distinct.transpose, 2)
    walked.clear()
    assert reconstruction_degree(distinct, budget=1) == 24 - u + 1 == 20
    assert walked == []
    spread = make_code(24, 24, [[5 * j % 24 for j in distinct.packets(i)] for i in range(24)])
    assert reduce(or_, spread.holders[:2]).bit_count() == 8
    assert reconstruction_degree(spread) == 20
    assert walked


def test_every_grid_ring_answers_without_a_walk(monkeypatch):
    # At M = theta - 1 a ring with theta > n has packets on a shared
    # window, and one with theta <= n has packets 0 and 1 on adjacent
    # windows, rho + 1 nodes: the holder count or the first leaf settles
    # every ring of both grids. So do prg codes, whose first two packets
    # are edges at one node: three nodes, one more than any edge.
    walked = counted_walks(monkeypatch)
    sweep_ring(range(10, 25), range(2, 5), range(1, 4))
    assert walked == []
    conjecture_harness(range(4, 15), range(2, 5))
    assert walked == []
    assert reconstruction_degree(build_prg(PrgSpec(21, 17)), budget=1) == 19
    assert reconstruction_degree(build_prg(PrgSpec(19, 15)), budget=1) == 17
    assert walked == []


def test_the_first_leaf_bracket_agrees_with_the_walk_and_brute_force(monkeypatch):
    # Every ring the sweep and conjecture grids visit with n in 4..12
    # (and the sweep's m = 1..3 below n = 10 too), against the same ring
    # with its packets shuffled. Where theta <= n and the shuffled first
    # pair spans more than rho + 1 nodes, the walk answers the shuffled
    # ring, and only there.
    rings = {(n, theta, rho) for n in range(4, 13) for rho in range(2, min(n, 5))
             for theta in default_theta_rule(n) + [n, 2 * n, 3 * n]}
    walked = counted_walks(monkeypatch)
    rng = random.Random(2016)
    answered_by_walk = 0
    for n, theta, rho in sorted(rings):
        ring = build_ring(RingSpec(n, theta, rho))
        degree = reconstruction_degree(ring, theta - 1, budget=1)
        assert walked == []
        order = rng.sample(range(theta), theta)
        shuffled = make_code(n, theta, [[order[j] for j in ring.packets(i)] for i in range(n)])
        assert reconstruction_degree(shuffled, theta - 1) == degree, (n, theta, rho)
        first_leaf = reduce(or_, shuffled.holders[:2]).bit_count()
        assert bool(walked) == (theta <= n and first_leaf > rho + 1), (n, theta, rho)
        answered_by_walk += bool(walked)
        walked.clear()
        if n <= 9:
            assert degree == brute_reconstruction_degree(ring, theta - 1), (n, theta, rho)
    assert answered_by_walk == 90


@settings(max_examples=150, deadline=None)
@given(small_codes(max_n=8), st.one_of(st.integers(1, 16), st.integers(1, 10**4)))
def test_searches_answer_exactly_or_refuse(code, budget):
    # Whatever the budget, each search equals its oracle or raises
    # BudgetExceeded, and an answer at a budget stands at twice it.
    def answer(search):
        try:
            found = search(budget)
        except BudgetExceeded:
            return None
        assert search(2 * budget) == found
        return found

    expected = [brute_min_coverage(code, k) for k in range(1, code.n + 1)]
    prof = answer(lambda b: coverage_profile(code, budget=b))
    if prof is not None:
        assert list(zip(prof.values, prof.witnesses)) == expected
    for file_size in range(1, code.theta + 1):
        degree = answer(lambda b: reconstruction_degree(code, file_size, budget=b))
        assert degree in (None, brute_reconstruction_degree(code, file_size))
    report = answer(lambda b: goodness_structural(code, budget=b))
    if report is not None:
        binding = report.k_evaluated, report.file_size, report.first_failing_k
        assert binding == brute_structural_goodness(code, report.weak)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("holding", ["all", "one", "half"])
def test_single_packet_codes_on_every_search_path(n, holding):
    holders = {"all": set(range(n)), "one": {n - 1}, "half": set(range(0, n, 2))}[holding]
    code = make_code(n, 1, [[0] if i in holders else [] for i in range(n)])
    spare = [i for i in range(n) if i not in holders]
    assert reconstruction_degree(code) == reconstruction_degree(code, 1) == n - len(holders) + 1
    assert min_coverage(code.transpose, 1) == (len(holders), (0,))
    for k in (1, n):
        expected = (0, tuple(spare[:k])) if k <= len(spare) else (1, tuple(range(k)))
        assert min_coverage(code, k) == expected
        # The symmetric walk holds on rotation-invariant codes and at k = n.
        for symmetric in {False, code.rotation_invariant or k == n}:
            walk = seeded_walk(code, k, code.theta + 1, 10**8, symmetric)
            assert list(walk)[-1] == expected, symmetric


def test_reconstruction_degree_unreachable():
    code = build_ring(RingSpec(5, 5, 2))
    with pytest.raises(Unreachable):
        reconstruction_degree(code, 6)
    with pytest.raises(KOutOfRange):
        reconstruction_degree(code, 0)


# --- rotation symmetry -----------------------------------------------------

# Equal node sizes, so only the holder-set comparison rejects it; the
# lone minimum pair (2, 3) misses node 0.
TWINS = make_code(4, 6, [{0, 1}, {2, 3}, {4, 5}, {4, 5}])


def symmetric_families():
    rng = random.Random(5150)
    yield from (
        build_ring(RingSpec(7, 7, 2)),
        build_ring(RingSpec(8, 16, 3)),
        build_ring(RingSpec(9, 9, 4)),
        build_ring(RingSpec(6, 18, 2)),
        build_t_code(TSpec(9, 3, 1)),
        build_t_code(TSpec(10, 3, 2)),
        build_t_code(TSpec(8, 2, 2)),
        circulant_code(1, [[0], [0]]),
        # Nodes 0, 3 and 6 hold the same packets: the best triple is
        # evenly spaced, its closing gap as small as its first.
        circulant_code(9, [[0, 3, 6]]),
        circulant_code(8, [[0, 4], [1, 5]]),
    )
    for _ in range(12):
        yield circulant_code(*random_circulant(rng, max_n=9))


def fallback_families():
    rng = random.Random(6160)
    yield from (
        build_prg(PrgSpec(7, 5)),
        build_prg(PrgSpec(9, 5)),
        build_prg(PrgSpec(11, 3)),
        build_ring(RingSpec(9, 13, 3)),
        TWINS,
    )
    for _ in range(8):
        n, bases = random_circulant(rng, max_n=9)
        yield circulant_code(n, bases, extra=[rng.randrange(n)])


def test_rotation_invariant_codes_match_oracles():
    for code in symmetric_families():
        assert code.rotation_invariant
        assert_matches_oracles(code)


def test_non_invariant_codes_match_oracles():
    for code in fallback_families():
        if code.n > 1:  # a one-node code is always rotation invariant
            assert not code.rotation_invariant
        assert_matches_oracles(code)
    # Too wide for the oracles at every k; the restricted walk would
    # already be wrong at k = 1..9 and at file sizes 4..9.
    assert_matches_oracles(
        build_ring(RingSpec(20, 30, 3)),
        ks=(1, 2, 3, 4, 17, 18, 19, 20),
        file_sizes=range(1, 10),
    )


@pytest.mark.parametrize(
    "code, invariant",
    [
        (build_ring(RingSpec(12, 12, 3)), True),
        (build_ring(RingSpec(10, 30, 4)), True),
        (build_ring(RingSpec(20, 30, 3)), False),  # theta not a multiple of n
        (build_ring(RingSpec(9, 13, 3)), False),
        (build_t_code(TSpec(26, 4, 2)), True),
        (build_t_code(TSpec(13, 3, 1)), True),
        (build_prg(PrgSpec(7, 5)), False),
        (build_prg(PrgSpec(21, 17)), False),
        (circulant_code(9, [[0, 3], [0, 3], [1, 2, 7]]), True),
        (circulant_code(9, [[0, 3]], extra=[4]), False),
        (circulant_code(1, [[0]], extra=[0]), True),
        (swap_nodes(build_ring(RingSpec(7, 7, 2)), 0, 3), False),
        (swap_nodes(build_t_code(TSpec(13, 3, 1)), 0, 5), False),
        (TWINS, False),
    ],
)
def test_rotation_invariance_verdicts(code, invariant):
    assert code.rotation_invariant is invariant


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rotation_invariant_matches_oracle_on_equal_sized_nodes(data):
    n = data.draw(st.integers(1, 9), label="n")
    base = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=3), label="bases")
    code = circulant_code(n, bases)
    kind = data.draw(st.sampled_from(["circulant", "split", "swapped"]), label="kind")
    if kind == "split":
        # One more packet on some nodes and one on the rest: every node
        # gains a packet, and the two may or may not rotate onto each other.
        part = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="part")
        storage = [
            set(code.packets(i)) | ({code.theta} if i in part else {code.theta + 1})
            for i in range(n)
        ]
        theta = code.theta + (1 if len(part) == n else 2)
        code = make_code(n, theta, storage)
    elif kind == "swapped":
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(0, n - 1), label="b")
        code = swap_nodes(code, a, b)
    assert len({m.bit_count() for m in code.masks}) == 1
    assert code.rotation_invariant is brute_rotation_invariant(code)


class CountingMasks(tuple):
    """Node masks that count indexed reads: the search reads one mask
    for every node it visits."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def count_reads(code, search):
    counted = FrCode(n=code.n, theta=code.theta, masks=CountingMasks(code.masks))
    return search(counted), counted.masks.reads


def full_walk(k):
    return lambda code: list(seeded_walk(code, k, code.theta + 1, 10**8, False))


def test_symmetric_search_engages_on_invariant_codes_only():
    invariant = build_t_code(TSpec(13, 3, 1))
    full_reads = symmetric_reads = 0
    for k in range(2, invariant.n):
        walk = list(seeded_walk(invariant, k, invariant.theta + 1, 10**8, True))
        for _, subset in walk:
            gaps = [b - a for a, b in zip(subset, subset[1:] + (invariant.n,))]
            assert subset[0] == 0 and gaps[0] == min(gaps)
        full, reads = count_reads(invariant, full_walk(k))
        assert full[-1] == walk[-1]
        full_reads += reads
        best, reads = count_reads(invariant, lambda code: min_coverage(code, k))
        assert best == walk[-1]
        symmetric_reads += reads
    assert symmetric_reads * 3 < full_reads  # 903 against 3,598
    file_size = invariant.theta - 1
    degree, degree_reads = count_reads(
        invariant, lambda code: reconstruction_degree(code, file_size)
    )
    decision_reads = sum(
        count_reads(
            invariant,
            lambda code: next(seeded_walk(code, k, file_size, 10**8, False), None),
        )[1]
        for k in range(1, degree + 1)
    )
    # 4 against 408: from k = 3 on, the transpose answers.
    assert degree_reads < decision_reads
    # Not invariant: min_coverage walks every subset the full walk does.
    other = build_ring(RingSpec(9, 13, 3))
    for k in range(2, other.n):
        full, reads = count_reads(other, full_walk(k))
        best, public_reads = count_reads(other, lambda code: min_coverage(code, k))
        assert best == full[-1]
        assert public_reads >= reads


def test_the_dual_walk_stops_at_its_proven_floor():
    # ring(12, 7, 3) at M = 6: no two packets share a window of 3 nodes,
    # so u >= 4. With packets relabeled j -> 3j mod 7 the first pair is
    # old packets 0 and 5, on 6 nodes, so the first leaf does not settle
    # u and the dual walk runs. Its pairs (0, 1) and (0, 2) span 6 nodes
    # and (0, 3), old packets 0 and 1, spans 4: the walk reads four
    # holder sets and stops there; minimising it tries the other pairs.
    ring = build_ring(RingSpec(12, 7, 3))
    code = make_code(12, 7, [[3 * j % 7 for j in ring.packets(i)] for i in range(12)])
    dual = FrCode(n=code.theta, theta=code.n, masks=CountingMasks(code.holders))
    # What cached_property stores, read off the real transpose.
    dual.__dict__.update(holders=code.masks, rotation_invariant=code.transpose.rotation_invariant)
    code.__dict__["transpose"] = dual
    assert reduce(or_, code.holders[:2]).bit_count() == 6
    assert reconstruction_degree(code) == 12 - 4 + 1 == predicted_k_ring(12, 7, 3).k
    assert dual.masks.reads == 4
    dual.masks.reads = 0
    assert min_coverage(dual, 2) == (4, (0, 3)) and dual.masks.reads > 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_circulant_search_paths_agree_with_oracles(data):
    n = data.draw(st.integers(1, 8), label="n")
    base = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    bases = data.draw(st.lists(base, min_size=1, max_size=3), label="bases")
    if data.draw(st.booleans(), label="repeat"):
        bases.append(bases[0])
    extra = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="extra")
    code = circulant_code(n, bases, extra)
    if not extra:
        assert code.rotation_invariant
    assert_matches_oracles(code)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_holders_and_searches_match_oracles_on_irregular_codes(data):
    # Node sets may be empty or repeated, n may exceed theta and theta
    # may be 1: the shapes where a search that assumes full nodes breaks.
    n = data.draw(st.integers(1, 8), label="n")
    theta = data.draw(st.integers(1, 8), label="theta")
    node = st.sets(st.integers(0, theta - 1), max_size=theta)
    storage = data.draw(st.lists(node, min_size=n, max_size=n), label="storage")
    storage[0] |= set(range(theta)).difference(*storage)  # no orphan packets
    if n > 1 and data.draw(st.booleans(), label="repeat"):
        storage[0] |= storage[-1]
        storage[-1] = set(storage[0])
    code = make_code(n, theta, storage)
    expected = brute_holders(code)
    assert code.holders == tuple(sum(1 << i for i in nodes) for nodes in expected)
    assert profile(code).rho_per_packet == tuple(len(nodes) for nodes in expected)
    assert_matches_oracles(code)


# --- goodness --------------------------------------------------------------


@pytest.mark.parametrize("file_size", [3.0, 4.5, True, "4"])
def test_file_size_must_be_an_int(file_size):
    # A float once answered with a fractional margin, and a bool as 0 or 1.
    message = rf"^file_size={file_size!r} is not an integer$"
    with pytest.raises(InvariantViolation, match=message):
        reconstruction_degree(build_ring(RingSpec(5, 5, 2)), file_size)
    with pytest.raises(InvariantViolation, match=message):
        goodness_arithmetic(2, 3, 5, file_size=file_size)


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


@pytest.mark.parametrize("file_size", [0, -7])
def test_goodness_arithmetic_rejects_file_sizes_below_one(file_size):
    with pytest.raises(KOutOfRange, match=f"^file size must be >= 1, got {file_size}$"):
        goodness_arithmetic(3, 2, 5, file_size=file_size)


@pytest.mark.parametrize("k, alpha, theta", [(0, 2, 5), (2, 0, 5), (2, 2, 0)])
def test_goodness_arithmetic_refuses_each_parameter_below_one(k, alpha, theta):
    message = f"^need k, alpha, theta >= 1, got {k}, {alpha}, {theta}$"
    with pytest.raises(KOutOfRange, match=message):
        goodness_arithmetic(k, alpha, theta)


def test_goodness_rhs_at_k_zero():
    # C(0, 2) = 0, so k = 0 is the smallest k the bound takes.
    assert goodness_rhs(0, 5) == 0
    assert goodness_rhs(0, 5, weak=True) == -1
    with pytest.raises(KOutOfRange, match="^k must be >= 0, got -1$"):
        goodness_rhs(-1, 5)


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
    assert single_deficit_shape(profile(build_prg(PrgSpec(9, 5))))
    assert not single_deficit_shape(profile(build_ring(RingSpec(5, 5, 2))))
    assert not single_deficit_shape(profile(make_code(3, 3, [{0, 1}, {0, 1}, {2}])))


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


def per_k_goodness(code, weak, coverage=None):
    """The goodness report that min_coverage at every k gives: the first
    failing k binds, else the earliest k of least margin. coverage(k),
    when given, supplies M(k) instead."""
    prof = profile(code)
    if weak is None:
        weak = single_deficit_shape(prof)
    scanned = []
    for k in range(1, min(prof.alpha, code.n) + 1):
        value = coverage(k) if coverage else min_coverage(code, k)[0]
        rhs = k * prof.alpha - math.comb(k, 2) - weak
        scanned.append((value - rhs, k, value, rhs))
        if value < rhs:
            break
    margin, k, value, rhs = min(scanned)
    passed = margin >= 0
    return analysis.GoodnessReport(
        alpha=prof.alpha, theta=code.theta, k_evaluated=k, file_size=value,
        weak=weak, rhs=rhs, rhs_positive=rhs > 0, margin=margin, verdict=passed,
        structural_verdict=passed, first_failing_k=None if passed else k,
    )


@settings(max_examples=300, deadline=None)
@given(small_codes(max_n=10), st.sampled_from([None, True, False]))
def test_goodness_structural_matches_the_per_k_minimum(code, weak):
    assert goodness_structural(code, weak=weak) == per_k_goodness(code, weak)


def largest_overlap(code):
    """lambda: the most packets two nodes share."""
    return max(
        ((a & b).bit_count() for a, b in itertools.combinations(code.masks, 2)), default=0
    )


def prg_with_a_double_edge():
    """prg(19, 7) with its packet on edge (0, 1) moved onto (0, 18), beside
    the edge (18, 0) it has already. Node 1 becomes the one node short of
    alpha, so the code keeps the prg shape and stays weakly universally
    good; but nodes 0 and 18 share two packets, and with lambda = 2 the
    pairwise-overlap bound settles no k."""
    code = build_prg(PrgSpec(19, 7))
    storage = [set(code.packets(i)) for i in range(code.n)]
    storage[1].remove(0)
    storage[18].add(0)
    return make_code(code.n, code.theta, storage)


def relabeled(code, rng):
    """code under a random node relabeling and a random packet relabeling."""
    nodes = rng.sample(range(code.n), code.n)
    packets = rng.sample(range(code.theta), code.theta)
    return make_code(code.n, code.theta, [[packets[p] for p in code.packets(i)] for i in nodes])


@st.composite
def graph_codes(draw):
    """Codes whose packets are the edges of a simple graph, so two nodes
    share at most one packet (rho = 2, lambda <= 1), under a random node
    and packet labeling. The graph is any graph, a circulant (every node
    of one degree), or on odd n a circulant plus a matching that misses
    one node: the prg shape, with one deficit node."""
    kind = draw(st.sampled_from(["any", "circulant", "deficit"]), label="kind")
    if kind == "deficit":
        p = draw(st.integers(1, 5), label="p")
        n = 2 * p + 1
        below = st.sets(st.integers(1, p - 1)) if p > 1 else st.just(set())
        offsets = draw(below, label="offsets")
        edges = {frozenset((v, (v + o) % n)) for o in offsets for v in range(n)}
        edges |= {frozenset((j, j + p)) for j in range(p)}
    elif kind == "circulant":
        n = draw(st.integers(3, 11), label="n")
        offsets = draw(st.sets(st.integers(1, n // 2), min_size=1), label="offsets")
        edges = {frozenset((v, (v + o) % n)) for o in offsets for v in range(n)}
    else:
        n = draw(st.integers(2, 10), label="n")
        pairs = [frozenset(pair) for pair in itertools.combinations(range(n), 2)]
        edges = set(draw(st.lists(st.sampled_from(pairs), min_size=1), label="edges"))
    code = make_code(n, len(edges), [[j for j, e in enumerate(edges) if i in e] for i in range(n)])
    return relabeled(code, random.Random(draw(st.integers(0, 2**32), label="seed")))


@settings(max_examples=200, deadline=None)
@given(graph_codes(), st.sampled_from([None, True, False]))
def test_goodness_structural_matches_the_per_k_minimum_on_graph_codes(code, weak):
    assert largest_overlap(code) <= 1
    assert goodness_structural(code, weak=weak) == per_k_goodness(code, weak)


def test_the_pair_bound_settles_every_k_after_the_first_on_prg_codes(monkeypatch):
    walked = []
    walk = analysis._smaller_unions

    def counting(code, k, *args):
        walked.append(k)
        return walk(code, k, *args)

    monkeypatch.setattr(analysis, "_smaller_unions", counting)
    prg = build_prg(PrgSpec(19, 7))
    for code in (build_prg(PrgSpec(21, 17)), prg, relabeled(prg, random.Random(19))):
        walked.clear()
        assert goodness_structural(code).structural_verdict
        assert walked == []
    # With lambda = 2 every k still walks.
    code = prg_with_a_double_edge()
    walked.clear()
    assert goodness_structural(code).structural_verdict
    assert largest_overlap(code) == 2 and walked == list(range(2, 8))


def test_goodness_structural_answers_prg_41_11_at_the_default_budget():
    # The walks refused it at k = 9 after about 5 s. The deficit node
    # binds at k = 1 with margin 0, and the pair bound settles every
    # later k.
    report = goodness_structural(build_prg(PrgSpec(41, 11)))
    assert report == analysis.GoodnessReport(
        alpha=11, theta=225, k_evaluated=1, file_size=10, weak=True, rhs=10,
        rhs_positive=True, margin=0, verdict=True, structural_verdict=True,
        first_failing_k=None,
    )


@pytest.mark.parametrize(
    "code",
    [
        build_prg(PrgSpec(19, 7)),
        build_prg(PrgSpec(21, 5)),
        build_prg(PrgSpec(25, 7)),
        build_t_code(TSpec(22, 4, 2)),
        build_t_code(TSpec(25, 4, 1)),
        build_ring(RingSpec(20, 30, 3)),
        build_ring(RingSpec(23, 23, 2)),
        build_ring(RingSpec(24, 36, 3)),
    ],
    ids=str,
)
def test_goodness_structural_is_unchanged_by_relabeling(code):
    # Node relabeling takes ring and t codes off the arc DP and the
    # symmetric walk onto the subset table, and prg codes to other node
    # orders; both keep the report, which must equal the one read off
    # the coverage profile.
    route = next(kernel for spec, kernel in PROFILE_ROUTES.items() if built(spec) == code)
    assert _profile_kernel(code, DEFAULT_BUDGET).func is route
    report = goodness_structural(code)
    for seed in (1, 2):
        other = relabeled(code, random.Random(seed))
        assert _profile_kernel(other, DEFAULT_BUDGET).func is _subset_table
        values = coverage_profile(other).values
        assert goodness_structural(other) == report
        assert per_k_goodness(other, None, lambda k: values[k - 1]) == report


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec(24, 36, 3),
        RingSpec(26, 26, 4),
        RingSpec(20, 30, 3),
        RingSpec(22, 22, 3),
        TSpec(22, 4, 2),
        TSpec(25, 4, 1),
        TSpec(26, 4, 2),
        PrgSpec(19, 7),
        PrgSpec(21, 5),
    ],
    ids=str,
)
def test_coverage_is_unchanged_by_relabeling_above_the_oracles_reach(spec):
    # A node relabeling moves a ring or t code off the arc DP and the
    # symmetric walk onto the subset table, so each kernel checks the
    # other where the brute-force oracles cannot run. A prg code stays
    # on the table, whose slices then fix and free other nodes.
    code = built(spec)
    route = PROFILE_ROUTES[spec]
    assert _profile_kernel(code, DEFAULT_BUDGET).func is route
    prof = coverage_profile(code)
    rng = random.Random(12)
    nodes = rng.sample(range(code.n), code.n)
    other = make_code(code.n, code.theta, [code.packets(i) for i in nodes])
    assert _arc_order(other) is None and not other.rotation_invariant
    assert _profile_kernel(other, DEFAULT_BUDGET).func is _subset_table
    moved = coverage_profile(other)
    assert moved.values == prof.values
    for k, (value, witness) in enumerate(zip(moved.values, moved.witnesses), start=1):
        assert len(witness) == k and list(witness) == sorted(set(witness))
        assert reduce(or_, [other.masks[i] for i in witness]).bit_count() == value
    # A packet relabeling keeps the witnesses as well.
    packets = rng.sample(range(code.theta), code.theta)
    shuffled = make_code(
        code.n, code.theta, [[packets[p] for p in code.packets(i)] for i in range(code.n)]
    )
    assert _profile_kernel(shuffled, DEFAULT_BUDGET).func is route
    assert coverage_profile(shuffled) == prof
    if type(spec) is PrgSpec:  # no arc order, and degrees past the walks' reach
        return
    # A unit relabeling i -> s*i mod n, s != 1 or -1, keeps an arc order
    # and the rotation symmetry or its absence, so the chooser takes the
    # same kernel again, the arc DP with other node weights. On both
    # codes each witness is the first subset the walk finds at its value.
    # Where the code has no symmetry both kernels run, so the DP stays
    # checked where the chooser takes the table.
    n = code.n
    unit = next(s for s in range(2, n - 1) if math.gcd(s, n) == 1)
    storage = [()] * n
    for i in range(n):
        storage[unit * i % n] = code.packets(i)
    scaled = make_code(n, code.theta, storage)
    assert _arc_order(scaled)[0] != 1
    assert scaled.rotation_invariant == code.rotation_invariant
    assert _profile_kernel(scaled, DEFAULT_BUDGET).func is route
    if not scaled.rotation_invariant:
        routed = coverage_profile(scaled)
        best = list(zip(routed.values, routed.witnesses))
        assert _most_missed(scaled, _arc_order(scaled)) == _subset_table(scaled) == best
    for c in (code, scaled):
        dp = coverage_profile(c)
        assert dp.values == prof.values
        for k, best in enumerate(zip(dp.values, dp.witnesses), start=1):
            assert best == next(_smaller_unions(c, k, best[0] + 1, 10**8)), k
    # Each degree is read off the profile and off the transpose, on the
    # code, on its node relabeling, whose walks have no symmetry, and on
    # its packet relabeling, whose dual walk meets its floor at other
    # packets.
    for file_size in range(1, code.theta + 1):
        least = next(k for k, value in enumerate(prof.values, start=1) if value >= file_size)
        for c in (code, other, shuffled):
            u, _ = min_coverage(c.transpose, c.theta - file_size + 1)
            assert reconstruction_degree(c, file_size) == least == c.n - u + 1, file_size


def test_goodness_structural_walks_each_k_only_to_the_binding_margin():
    # Each k after the first searches only for a union below its rhs plus
    # the least margin so far.
    code = prg_with_a_double_edge()
    report = goodness_structural(code, budget=8324)
    assert report == per_k_goodness(code, None)
    with pytest.raises(BudgetExceeded, match="^search at k=6 exceeds budget of 8323 steps$"):
        goodness_structural(code, budget=8323)
    # On prg(19, 7) no k walks.
    prg = build_prg(PrgSpec(19, 7))
    assert goodness_structural(prg, budget=1) == per_k_goodness(prg, None)


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


def test_predicted_k_ring_branches():
    assert predicted_k_ring(5, 5, 2) == (3, "theorem")
    assert predicted_k_ring(6, 12, 2) == (5, "theorem")
    assert predicted_k_ring(9, 20, 3) == (7, "conjecture")
    assert predicted_k_ring(6, 4, 2) == (4, "conjecture")
    with pytest.raises(RhoRange):
        predicted_k_ring(5, 5, 5)
    # It refuses what RingSpec refuses, so a non-int gets no answer.
    for n, theta, name in ((5.5, 5, "n=5.5"), (5, "5", "theta='5'"), (5, 5.0, "theta=5.0")):
        with pytest.raises(InvariantViolation, match=f"^{name} is not an integer$"):
            predicted_k_ring(n, theta, 2)


def test_transpose_settles_the_conjectured_ring_branches():
    # At file size theta - 1, t = 2 and k = n - u + 1, with u the
    # smallest union of two packets' holder windows.
    checked = 0
    for n in range(4, 25):
        for rho in range(2, n):
            for theta in default_theta_rule(n):
                dual = build_ring(RingSpec(n, theta, rho)).transpose
                u = min_coverage(dual, 2)[0]
                assert u == (rho if theta > n else rho + 1), (n, theta, rho)
                assert n - u + 1 == predicted_k_ring(n, theta, rho).k
                checked += 1
    assert checked == 11886


def test_the_conjecture_harness_agrees_with_both_proven_branches():
    # predicted_k_ring's docstring proves the conjectured branches at
    # theta - 1, so every instance agrees; the harness reads each degree
    # off the shared window, or off the dual walk stopped at its floor.
    findings = conjecture_harness(range(4, 41), range(2, 5))
    assert len(findings) == 6874
    assert all(f.brute_k == predicted_k_ring(f.n, f.theta, f.rho).k for f in findings)


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
