from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    single_deficit_shape,
)
from frcodes.analysis import _arc_order, _smaller_unions
from frcodes.core import FrCode
from frcodes.sweep import default_theta_rule
from oracles import (
    brute_holders,
    brute_min_coverage,
    brute_reconstruction_degree,
    brute_rotation_invariant,
)


def random_code(rng, max_n=10, max_theta=20):
    n = rng.randint(1, max_n)
    theta = rng.randint(1, max_theta)
    storage = [set() for _ in range(n)]
    for j in range(theta):
        count = rng.randint(1, n)
        for i in rng.sample(range(n), count):
            storage[i].add(j)
    return make_code(n, theta, storage)


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
    prof = coverage_profile(code)
    for k in range(1, code.n + 1):
        assert (prof.values[k - 1], prof.witnesses[k - 1]) == brute_min_coverage(code, k), k


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
    # Only the witness walks read masks: 254 against 110,858 reads on
    # the ring, 279 against 919 on the t code (relabeled by a unit).
    prof, reads = count_reads(code, coverage_profile)
    per_k, loop_reads = count_reads(
        code, lambda c: [min_coverage(c, k) for k in range(1, c.n + 1)]
    )
    assert list(zip(prof.values, prof.witnesses)) == per_k
    assert reads * 3 < loop_reads


def test_coverage_profile_refuses_as_the_per_k_loop_does():
    # C(12, 6) exceeds the budget, so the loop runs and stops at k = 3.
    with pytest.raises(BudgetExceeded) as info:
        coverage_profile(build_ring(RingSpec(12, 12, 3)), budget=100)
    assert str(info.value) == "C(12, 3) = 220 exceeds budget 100"


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


def test_reconstruction_degree_answers_from_the_cheaper_side():
    # C(30, 13) exceeds the default budget, so the scan alone refuses
    # ring(30, 30, 3); the transpose at t = 2 has C(30, 2) = 435 pairs.
    code = build_ring(RingSpec(30, 30, 3))
    with pytest.raises(BudgetExceeded):
        for k in range(1, code.n + 1):
            next(_smaller_unions(code, k, code.theta - 1, 10**8, True), None)
    assert reconstruction_degree(code) == 27
    assert reconstruction_degree(build_t_code(TSpec(26, 4, 2))) == 22


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
            walk = _smaller_unions(code, k, code.theta + 1, 10**8, symmetric)
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
    return lambda code: list(_smaller_unions(code, k, code.theta + 1, 10**8, False))


def test_symmetric_search_engages_on_invariant_codes_only():
    invariant = build_t_code(TSpec(13, 3, 1))
    full_reads = symmetric_reads = 0
    for k in range(2, invariant.n):
        walk = list(_smaller_unions(invariant, k, invariant.theta + 1, 10**8, True))
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
            lambda code: next(_smaller_unions(code, k, file_size, 10**8, False), None),
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
